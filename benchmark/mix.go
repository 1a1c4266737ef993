package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"strconv"

	"jsonpark/internal/core"
	"jsonpark/internal/variant"
)

// mixRequest is one /query request text with the hash of its right answer.
type mixRequest struct {
	id       string
	query    string
	strategy string // jsqd's name for the nested-query strategy
	body     []byte // the encoded POST body
	want     uint64
}

func newMixRequest(id, query, strategy string) mixRequest {
	body, _ := json.Marshal(map[string]string{"query": query, "strategy": strategy}) // strings cannot fail to marshal
	return mixRequest{id: id, query: query, strategy: strategy, body: body}
}

// Shape of the serve_mix traffic: nine requests in ten go to the hot head, a
// Zipf(1.1) draw over the 21 base texts; the rest are uniform over a cold
// tail of literal-varied cheap texts, eight times jsqd's plan-cache size.
const (
	hotShare     = 0.9
	zipfExponent = 1.1
	coldTexts    = 2048
)

// requestMix is the serve_mix population.
type requestMix struct {
	base []mixRequest // in rank order, most popular first
	cold []mixRequest
}

// baseRequests interleaves the ADL and SSB queries into a rank order that
// does not depend on the seed: hit-path cost differs per text (response
// size, translation cost), so a seeded order would make latency_p50_ms a
// property of the seed. The seed drives the data and every draw.
func baseRequests() []mixRequest {
	a, s := adlQueries(), ssbQueries()
	var out []mixRequest
	for i := 0; i < len(a) || i < len(s); i++ {
		if i < len(a) {
			strategy := ""
			if a[i].Strategy == core.StrategyJoin {
				strategy = "join"
			}
			out = append(out, newMixRequest(a[i].ID, a[i].JSONiq, strategy))
		}
		if i < len(s) {
			out = append(out, newMixRequest(s[i].ID, s[i].JSONiq, ""))
		}
	}
	return out
}

// metHistQuery is ADL q1 (MET histogram, 5 GeV bins) over the events whose
// MET is above a threshold, given as the literal's text.
func metHistQuery(threshold string) string {
	return fmt.Sprintf(`
for $e in collection("adl")
where $e.MET.pt gt %s
group by $bin := floor($e.MET.pt div 5.0) * 5.0
order by $bin
return {"bin": $bin, "count": count($e)}
`, threshold)
}

// metPts pulls MET.pt out of ADL events.
func metPts(docs []variant.Value) []float64 {
	pts := make([]float64, len(docs))
	for i, d := range docs {
		pts[i] = d.Field("MET").Field("pt").AsFloat()
	}
	return pts
}

// metHistAnswer computes metHistQuery's answer directly, sharing no code
// with the system.
func metHistAnswer(pts []float64, threshold float64) uint64 {
	hist := map[float64]int64{}
	for _, pt := range pts {
		if pt > threshold {
			hist[math.Floor(pt/5.0)*5.0]++
		}
	}
	items := make([]variant.Value, 0, len(hist))
	for bin, count := range hist {
		items = append(items, variant.ObjectFromPairs("bin", variant.Float(bin), "count", variant.Int(count)))
	}
	return canonValues(items)
}

// coldRequests builds n literal-varied texts, half shaped like ADL q1 (MET
// histogram above a threshold) and half like SSB q1.1 (filtered revenue sum),
// with answers from a direct computation over the generated documents that
// shares no code with the system.
func coldRequests(tables []table, n int) []mixRequest {
	var adlDocs, lineorders, dates []variant.Value
	for _, t := range tables {
		switch t.name {
		case "adl":
			adlDocs = t.docs
		case "lineorder":
			lineorders = t.docs
		case "date":
			dates = t.docs
		}
	}
	// Pull the few fields the two shapes read out of the documents once.
	pts := metPts(adlDocs)
	yearOf := map[int64]int64{}
	for _, d := range dates {
		yearOf[d.Field("d_datekey").AsInt()] = d.Field("d_year").AsInt()
	}
	type order struct{ year, discount, quantity, price int64 }
	orders := make([]order, len(lineorders))
	for i, l := range lineorders {
		orders[i] = order{
			yearOf[l.Field("lo_orderdate").AsInt()], l.Field("lo_discount").AsInt(),
			l.Field("lo_quantity").AsInt(), l.Field("lo_extendedprice").AsInt(),
		}
	}

	out := make([]mixRequest, 0, n)
	for k := 0; k < n/2; k++ {
		text := strconv.FormatFloat(float64(k)*0.05, 'f', 2, 64)
		threshold, _ := strconv.ParseFloat(text, 64)
		r := newMixRequest("met>"+text, metHistQuery(text), "")
		r.want = metHistAnswer(pts, threshold)
		out = append(out, r)
	}
	for k := 0; len(out) < n; k++ {
		year, lo, qty := int64(1992+k%7), int64(k/7%9), int64(20+k/63%21)
		q := fmt.Sprintf(`
sum(
  for $l in collection("lineorder")
  for $d in collection("date")
  where $l.lo_orderdate eq $d.d_datekey
  where $d.d_year eq %d and $l.lo_discount ge %d and $l.lo_discount le %d and $l.lo_quantity lt %d
  return $l.lo_extendedprice * $l.lo_discount
)`, year, lo, lo+2, qty)
		var sum int64
		for _, o := range orders {
			if o.year == year && o.discount >= lo && o.discount <= lo+2 && o.quantity < qty {
				sum += o.price * o.discount
			}
		}
		r := newMixRequest(fmt.Sprintf("rev:%d/%d/%d", year, lo, qty), q, "")
		r.want = canonValues([]variant.Value{variant.Int(sum)})
		out = append(out, r)
	}
	return out
}

// sampler draws one client's requests; each client has its own stream.
type sampler struct {
	mix  *requestMix
	rng  *rand.Rand
	zipf *rand.Zipf
}

func (m *requestMix) sampler(seed int64, client int) *sampler {
	rng := rand.New(rand.NewSource(seed*1000003 + int64(client)))
	// rand.Zipf draws k in [0, imax] with P(k) proportional to (1+k)^-s.
	return &sampler{m, rng, rand.NewZipf(rng, zipfExponent, 1, uint64(len(m.base)-1))}
}

func (s *sampler) next() *mixRequest {
	if s.rng.Float64() < hotShare {
		return &s.mix.base[s.zipf.Uint64()]
	}
	return &s.mix.cold[s.rng.Intn(len(s.mix.cold))]
}
