package ssb

// The thirteen SSB queries. The JSONiq formulations express the star joins
// as successive for clauses with where equalities (§II-E of the paper); the
// handwritten SQL uses explicit INNER JOINs. Both produce identical rows:
// flight Q1.x returns a single revenue value, flights Q2–Q4 return grouped
// rows whose object keys match the SQL output column names. As the paper
// notes for SSB (§V-G), the JSONiq version returns a single object per row,
// which adds an OBJECT_CONSTRUCT to the plan.

// Query is one SSB query in both languages.
type Query struct {
	ID     string
	JSONiq string
	SQL    string
}

// Queries returns Q1.1–Q4.3 in flight order.
func Queries() []Query {
	return []Query{
		{"q1.1", q11JSONiq, q11SQL},
		{"q1.2", q12JSONiq, q12SQL},
		{"q1.3", q13JSONiq, q13SQL},
		{"q2.1", q21JSONiq, q21SQL},
		{"q2.2", q22JSONiq, q22SQL},
		{"q2.3", q23JSONiq, q23SQL},
		{"q3.1", q31JSONiq, q31SQL},
		{"q3.2", q32JSONiq, q32SQL},
		{"q3.3", q33JSONiq, q33SQL},
		{"q3.4", q34JSONiq, q34SQL},
		{"q4.1", q41JSONiq, q41SQL},
		{"q4.2", q42JSONiq, q42SQL},
		{"q4.3", q43JSONiq, q43SQL},
	}
}

// Fig11bQueries is the subset the paper plots across scale factors: the
// first query of each flight.
var Fig11bQueries = []string{"q1.1", "q2.1", "q3.1", "q4.1"}

// ByID returns one query.
func ByID(id string) (Query, bool) {
	for _, q := range Queries() {
		if q.ID == id {
			return q, true
		}
	}
	return Query{}, false
}

const q11JSONiq = `
sum(
  for $l in collection("lineorder")
  for $d in collection("date")
  where $l.lo_orderdate eq $d.d_datekey
  where $d.d_year eq 1993 and $l.lo_discount ge 1 and $l.lo_discount le 3 and $l.lo_quantity lt 25
  return $l.lo_extendedprice * $l.lo_discount
)`

const q11SQL = `
SELECT SUM(lo_extendedprice * lo_discount) AS revenue
FROM lineorder INNER JOIN date ON lo_orderdate = d_datekey
WHERE d_year = 1993 AND lo_discount BETWEEN 1 AND 3 AND lo_quantity < 25`

const q12JSONiq = `
sum(
  for $l in collection("lineorder")
  for $d in collection("date")
  where $l.lo_orderdate eq $d.d_datekey
  where $d.d_yearmonthnum eq 199401 and $l.lo_discount ge 4 and $l.lo_discount le 6 and $l.lo_quantity ge 26 and $l.lo_quantity le 35
  return $l.lo_extendedprice * $l.lo_discount
)`

const q12SQL = `
SELECT SUM(lo_extendedprice * lo_discount) AS revenue
FROM lineorder INNER JOIN date ON lo_orderdate = d_datekey
WHERE d_yearmonthnum = 199401 AND lo_discount BETWEEN 4 AND 6 AND lo_quantity BETWEEN 26 AND 35`

const q13JSONiq = `
sum(
  for $l in collection("lineorder")
  for $d in collection("date")
  where $l.lo_orderdate eq $d.d_datekey
  where $d.d_weeknuminyear eq 6 and $d.d_year eq 1994 and $l.lo_discount ge 5 and $l.lo_discount le 7 and $l.lo_quantity ge 26 and $l.lo_quantity le 35
  return $l.lo_extendedprice * $l.lo_discount
)`

const q13SQL = `
SELECT SUM(lo_extendedprice * lo_discount) AS revenue
FROM lineorder INNER JOIN date ON lo_orderdate = d_datekey
WHERE d_weeknuminyear = 6 AND d_year = 1994 AND lo_discount BETWEEN 5 AND 7 AND lo_quantity BETWEEN 26 AND 35`

const q21JSONiq = `
for $l in collection("lineorder")
for $d in collection("date")
where $l.lo_orderdate eq $d.d_datekey
for $p in collection("part")
where $l.lo_partkey eq $p.p_partkey and $p.p_category eq "MFGR#12"
for $s in collection("supplier")
where $l.lo_suppkey eq $s.s_suppkey and $s.s_region eq "AMERICA"
group by $year := $d.d_year, $brand := $p.p_brand1
order by $year, $brand
return {"d_year": $year, "p_brand1": $brand, "revenue": sum($l.lo_revenue)}`

const q21SQL = `
SELECT d_year, p_brand1, SUM(lo_revenue) AS revenue
FROM lineorder
  INNER JOIN date ON lo_orderdate = d_datekey
  INNER JOIN part ON lo_partkey = p_partkey
  INNER JOIN supplier ON lo_suppkey = s_suppkey
WHERE p_category = 'MFGR#12' AND s_region = 'AMERICA'
GROUP BY d_year, p_brand1
ORDER BY d_year ASC, p_brand1 ASC`

const q22JSONiq = `
for $l in collection("lineorder")
for $d in collection("date")
where $l.lo_orderdate eq $d.d_datekey
for $p in collection("part")
where $l.lo_partkey eq $p.p_partkey and $p.p_brand1 ge "MFGR#2221" and $p.p_brand1 le "MFGR#2228"
for $s in collection("supplier")
where $l.lo_suppkey eq $s.s_suppkey and $s.s_region eq "ASIA"
group by $year := $d.d_year, $brand := $p.p_brand1
order by $year, $brand
return {"d_year": $year, "p_brand1": $brand, "revenue": sum($l.lo_revenue)}`

const q22SQL = `
SELECT d_year, p_brand1, SUM(lo_revenue) AS revenue
FROM lineorder
  INNER JOIN date ON lo_orderdate = d_datekey
  INNER JOIN part ON lo_partkey = p_partkey
  INNER JOIN supplier ON lo_suppkey = s_suppkey
WHERE p_brand1 BETWEEN 'MFGR#2221' AND 'MFGR#2228' AND s_region = 'ASIA'
GROUP BY d_year, p_brand1
ORDER BY d_year ASC, p_brand1 ASC`

const q23JSONiq = `
for $l in collection("lineorder")
for $d in collection("date")
where $l.lo_orderdate eq $d.d_datekey
for $p in collection("part")
where $l.lo_partkey eq $p.p_partkey and $p.p_brand1 eq "MFGR#2239"
for $s in collection("supplier")
where $l.lo_suppkey eq $s.s_suppkey and $s.s_region eq "EUROPE"
group by $year := $d.d_year, $brand := $p.p_brand1
order by $year, $brand
return {"d_year": $year, "p_brand1": $brand, "revenue": sum($l.lo_revenue)}`

const q23SQL = `
SELECT d_year, p_brand1, SUM(lo_revenue) AS revenue
FROM lineorder
  INNER JOIN date ON lo_orderdate = d_datekey
  INNER JOIN part ON lo_partkey = p_partkey
  INNER JOIN supplier ON lo_suppkey = s_suppkey
WHERE p_brand1 = 'MFGR#2239' AND s_region = 'EUROPE'
GROUP BY d_year, p_brand1
ORDER BY d_year ASC, p_brand1 ASC`

const q31JSONiq = `
for $c in collection("customer")
for $l in collection("lineorder")
where $l.lo_custkey eq $c.c_custkey and $c.c_region eq "ASIA"
for $s in collection("supplier")
where $l.lo_suppkey eq $s.s_suppkey and $s.s_region eq "ASIA"
for $d in collection("date")
where $l.lo_orderdate eq $d.d_datekey and $d.d_year ge 1992 and $d.d_year le 1997
group by $cn := $c.c_nation, $sn := $s.s_nation, $year := $d.d_year
order by $year ascending, sum($l.lo_revenue) descending
return {"c_nation": $cn, "s_nation": $sn, "d_year": $year, "revenue": sum($l.lo_revenue)}`

const q31SQL = `
SELECT c_nation, s_nation, d_year, SUM(lo_revenue) AS revenue
FROM customer
  INNER JOIN lineorder ON lo_custkey = c_custkey
  INNER JOIN supplier ON lo_suppkey = s_suppkey
  INNER JOIN date ON lo_orderdate = d_datekey
WHERE c_region = 'ASIA' AND s_region = 'ASIA' AND d_year BETWEEN 1992 AND 1997
GROUP BY c_nation, s_nation, d_year
ORDER BY d_year ASC, SUM(lo_revenue) DESC`

const q32JSONiq = `
for $c in collection("customer")
for $l in collection("lineorder")
where $l.lo_custkey eq $c.c_custkey and $c.c_nation eq "UNITED STATES"
for $s in collection("supplier")
where $l.lo_suppkey eq $s.s_suppkey and $s.s_nation eq "UNITED STATES"
for $d in collection("date")
where $l.lo_orderdate eq $d.d_datekey and $d.d_year ge 1992 and $d.d_year le 1997
group by $cc := $c.c_city, $sc := $s.s_city, $year := $d.d_year
order by $year ascending, sum($l.lo_revenue) descending
return {"c_city": $cc, "s_city": $sc, "d_year": $year, "revenue": sum($l.lo_revenue)}`

const q32SQL = `
SELECT c_city, s_city, d_year, SUM(lo_revenue) AS revenue
FROM customer
  INNER JOIN lineorder ON lo_custkey = c_custkey
  INNER JOIN supplier ON lo_suppkey = s_suppkey
  INNER JOIN date ON lo_orderdate = d_datekey
WHERE c_nation = 'UNITED STATES' AND s_nation = 'UNITED STATES' AND d_year BETWEEN 1992 AND 1997
GROUP BY c_city, s_city, d_year
ORDER BY d_year ASC, SUM(lo_revenue) DESC`

const q33JSONiq = `
for $c in collection("customer")
for $l in collection("lineorder")
where $l.lo_custkey eq $c.c_custkey and ($c.c_city eq "UNITED KI1" or $c.c_city eq "UNITED KI5")
for $s in collection("supplier")
where $l.lo_suppkey eq $s.s_suppkey and ($s.s_city eq "UNITED KI1" or $s.s_city eq "UNITED KI5")
for $d in collection("date")
where $l.lo_orderdate eq $d.d_datekey and $d.d_year ge 1992 and $d.d_year le 1997
group by $cc := $c.c_city, $sc := $s.s_city, $year := $d.d_year
order by $year ascending, sum($l.lo_revenue) descending
return {"c_city": $cc, "s_city": $sc, "d_year": $year, "revenue": sum($l.lo_revenue)}`

const q33SQL = `
SELECT c_city, s_city, d_year, SUM(lo_revenue) AS revenue
FROM customer
  INNER JOIN lineorder ON lo_custkey = c_custkey
  INNER JOIN supplier ON lo_suppkey = s_suppkey
  INNER JOIN date ON lo_orderdate = d_datekey
WHERE (c_city = 'UNITED KI1' OR c_city = 'UNITED KI5')
  AND (s_city = 'UNITED KI1' OR s_city = 'UNITED KI5')
  AND d_year BETWEEN 1992 AND 1997
GROUP BY c_city, s_city, d_year
ORDER BY d_year ASC, SUM(lo_revenue) DESC`

const q34JSONiq = `
for $c in collection("customer")
for $l in collection("lineorder")
where $l.lo_custkey eq $c.c_custkey and ($c.c_city eq "UNITED KI1" or $c.c_city eq "UNITED KI5")
for $s in collection("supplier")
where $l.lo_suppkey eq $s.s_suppkey and ($s.s_city eq "UNITED KI1" or $s.s_city eq "UNITED KI5")
for $d in collection("date")
where $l.lo_orderdate eq $d.d_datekey and $d.d_yearmonth eq "Dec1997"
group by $cc := $c.c_city, $sc := $s.s_city, $year := $d.d_year
order by $year ascending, sum($l.lo_revenue) descending
return {"c_city": $cc, "s_city": $sc, "d_year": $year, "revenue": sum($l.lo_revenue)}`

const q34SQL = `
SELECT c_city, s_city, d_year, SUM(lo_revenue) AS revenue
FROM customer
  INNER JOIN lineorder ON lo_custkey = c_custkey
  INNER JOIN supplier ON lo_suppkey = s_suppkey
  INNER JOIN date ON lo_orderdate = d_datekey
WHERE (c_city = 'UNITED KI1' OR c_city = 'UNITED KI5')
  AND (s_city = 'UNITED KI1' OR s_city = 'UNITED KI5')
  AND d_yearmonth = 'Dec1997'
GROUP BY c_city, s_city, d_year
ORDER BY d_year ASC, SUM(lo_revenue) DESC`

const q41JSONiq = `
for $c in collection("customer")
for $l in collection("lineorder")
where $l.lo_custkey eq $c.c_custkey and $c.c_region eq "AMERICA"
for $s in collection("supplier")
where $l.lo_suppkey eq $s.s_suppkey and $s.s_region eq "AMERICA"
for $p in collection("part")
where $l.lo_partkey eq $p.p_partkey and ($p.p_mfgr eq "MFGR#1" or $p.p_mfgr eq "MFGR#2")
for $d in collection("date")
where $l.lo_orderdate eq $d.d_datekey
group by $year := $d.d_year, $cn := $c.c_nation
order by $year, $cn
return {"d_year": $year, "c_nation": $cn, "profit": sum($l.lo_revenue) - sum($l.lo_supplycost)}`

const q41SQL = `
SELECT d_year, c_nation, SUM(lo_revenue) - SUM(lo_supplycost) AS profit
FROM customer
  INNER JOIN lineorder ON lo_custkey = c_custkey
  INNER JOIN supplier ON lo_suppkey = s_suppkey
  INNER JOIN part ON lo_partkey = p_partkey
  INNER JOIN date ON lo_orderdate = d_datekey
WHERE c_region = 'AMERICA' AND s_region = 'AMERICA' AND (p_mfgr = 'MFGR#1' OR p_mfgr = 'MFGR#2')
GROUP BY d_year, c_nation
ORDER BY d_year ASC, c_nation ASC`

const q42JSONiq = `
for $c in collection("customer")
for $l in collection("lineorder")
where $l.lo_custkey eq $c.c_custkey and $c.c_region eq "AMERICA"
for $s in collection("supplier")
where $l.lo_suppkey eq $s.s_suppkey and $s.s_region eq "AMERICA"
for $p in collection("part")
where $l.lo_partkey eq $p.p_partkey and ($p.p_mfgr eq "MFGR#1" or $p.p_mfgr eq "MFGR#2")
for $d in collection("date")
where $l.lo_orderdate eq $d.d_datekey and ($d.d_year eq 1997 or $d.d_year eq 1998)
group by $year := $d.d_year, $sn := $s.s_nation, $cat := $p.p_category
order by $year, $sn, $cat
return {"d_year": $year, "s_nation": $sn, "p_category": $cat, "profit": sum($l.lo_revenue) - sum($l.lo_supplycost)}`

const q42SQL = `
SELECT d_year, s_nation, p_category, SUM(lo_revenue) - SUM(lo_supplycost) AS profit
FROM customer
  INNER JOIN lineorder ON lo_custkey = c_custkey
  INNER JOIN supplier ON lo_suppkey = s_suppkey
  INNER JOIN part ON lo_partkey = p_partkey
  INNER JOIN date ON lo_orderdate = d_datekey
WHERE c_region = 'AMERICA' AND s_region = 'AMERICA'
  AND (p_mfgr = 'MFGR#1' OR p_mfgr = 'MFGR#2')
  AND (d_year = 1997 OR d_year = 1998)
GROUP BY d_year, s_nation, p_category
ORDER BY d_year ASC, s_nation ASC, p_category ASC`

const q43JSONiq = `
for $c in collection("customer")
for $l in collection("lineorder")
where $l.lo_custkey eq $c.c_custkey and $c.c_region eq "AMERICA"
for $s in collection("supplier")
where $l.lo_suppkey eq $s.s_suppkey and $s.s_nation eq "UNITED STATES"
for $p in collection("part")
where $l.lo_partkey eq $p.p_partkey and $p.p_category eq "MFGR#14"
for $d in collection("date")
where $l.lo_orderdate eq $d.d_datekey and ($d.d_year eq 1997 or $d.d_year eq 1998)
group by $year := $d.d_year, $sc := $s.s_city, $brand := $p.p_brand1
order by $year, $sc, $brand
return {"d_year": $year, "s_city": $sc, "p_brand1": $brand, "profit": sum($l.lo_revenue) - sum($l.lo_supplycost)}`

const q43SQL = `
SELECT d_year, s_city, p_brand1, SUM(lo_revenue) - SUM(lo_supplycost) AS profit
FROM customer
  INNER JOIN lineorder ON lo_custkey = c_custkey
  INNER JOIN supplier ON lo_suppkey = s_suppkey
  INNER JOIN part ON lo_partkey = p_partkey
  INNER JOIN date ON lo_orderdate = d_datekey
WHERE c_region = 'AMERICA' AND s_nation = 'UNITED STATES'
  AND p_category = 'MFGR#14'
  AND (d_year = 1997 OR d_year = 1998)
GROUP BY d_year, s_city, p_brand1
ORDER BY d_year ASC, s_city ASC, p_brand1 ASC`
