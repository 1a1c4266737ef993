module jsonpark/benchmark

go 1.22

require jsonpark v0.0.0

replace jsonpark => ../
