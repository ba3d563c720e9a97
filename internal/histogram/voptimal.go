package histogram

import "fmt"

// BuildVOptimal builds the classic V-optimal histogram (Jagadish et al.):
// bucket boundaries are chosen by dynamic programming to minimize the total
// within-bucket variance (sum of squared errors) of the values — the
// "standard histogram construction technique that chooses boundaries to
// minimize estimation error" the paper's Section IV-C invokes to explain
// why histogram summaries beat fixed grids.
//
// Runtime is O(n²·b) over the distinct sorted values, so it suits the
// static/offline uses (experiment baselines, catalog construction at
// moderate column cardinalities); the online path keeps the cheaper
// split/merge Dynamic histogram.
func BuildVOptimal(values, costs []float64, nbuckets int) (*Histogram, error) {
	if nbuckets <= 0 {
		return nil, fmt.Errorf("histogram: nbuckets must be positive, got %d", nbuckets)
	}
	if len(values) == 0 {
		return nil, fmt.Errorf("histogram: no values")
	}
	sv, sc, err := pairAndSort(values, costs)
	if err != nil {
		return nil, err
	}
	n := len(sv)
	if nbuckets > n {
		nbuckets = n
	}

	// Prefix sums for O(1) segment SSE: sse(i,j) over sv[i..j] equals
	// Σv² − (Σv)²/len.
	prefix := make([]float64, n+1)
	prefixSq := make([]float64, n+1)
	for i, v := range sv {
		prefix[i+1] = prefix[i] + v
		prefixSq[i+1] = prefixSq[i] + v*v
	}
	sse := func(i, j int) float64 { // inclusive i..j
		cnt := float64(j - i + 1)
		sum := prefix[j+1] - prefix[i]
		sq := prefixSq[j+1] - prefixSq[i]
		s := sq - sum*sum/cnt
		if s < 0 {
			return 0 // numeric noise
		}
		return s
	}

	const inf = 1e308
	// dp[k][j] = minimal SSE of the first j+1 values split into k+1 buckets.
	dp := make([][]float64, nbuckets)
	cut := make([][]int, nbuckets)
	for k := range dp {
		dp[k] = make([]float64, n)
		cut[k] = make([]int, n)
	}
	for j := 0; j < n; j++ {
		dp[0][j] = sse(0, j)
	}
	for k := 1; k < nbuckets; k++ {
		for j := 0; j < n; j++ {
			dp[k][j] = inf
			if j < k {
				continue // not enough values for k+1 non-empty buckets
			}
			// A valid cut even when every candidate's SSE overflows (values
			// near the largest float): the reconstruction below follows cut.
			cut[k][j] = k
			for i := k; i <= j; i++ { // bucket k covers values i..j
				if c := dp[k-1][i-1] + sse(i, j); c < dp[k][j] {
					dp[k][j] = c
					cut[k][j] = i
				}
			}
		}
	}

	// Reconstruct boundaries.
	bounds := make([]int, 0, nbuckets) // start index of each bucket, ascending
	j := n - 1
	for k := nbuckets - 1; k >= 1; k-- {
		i := cut[k][j]
		bounds = append(bounds, i)
		j = i - 1
	}
	// Reverse into ascending order and prepend 0.
	starts := make([]int, 0, nbuckets)
	starts = append(starts, 0)
	for i := len(bounds) - 1; i >= 0; i-- {
		starts = append(starts, bounds[i])
	}

	buckets := make([]Bucket, 0, nbuckets)
	for bi, start := range starts {
		end := n
		if bi+1 < len(starts) {
			end = starts[bi+1]
		}
		if end <= start {
			continue
		}
		b := Bucket{Lo: sv[start], Hi: sv[end-1]}
		for i := start; i < end; i++ {
			b.Count++
			b.CostSum += sc[i]
		}
		buckets = append(buckets, b)
	}
	sealBoundaries(buckets)
	return newHistogram(buckets, float64(n)), nil
}

// SSE returns a histogram's total within-bucket sum of squared errors
// against the given value set, assuming each value is estimated by its
// bucket's mean — the objective BuildVOptimal minimizes. Exposed so tests
// and experiments can compare construction strategies.
func SSE(h *Histogram, values []float64) float64 {
	// Recompute per bucket: mean of contained values, then squared error.
	var total float64
	for _, b := range h.Buckets() {
		var sum float64
		var cnt int
		for _, v := range values {
			if v >= b.Lo && (v < b.Hi || v == b.Lo) {
				sum += v
				cnt++
			}
		}
		if cnt == 0 {
			continue
		}
		mean := sum / float64(cnt)
		for _, v := range values {
			if v >= b.Lo && (v < b.Hi || v == b.Lo) {
				total += (v - mean) * (v - mean)
			}
		}
	}
	return total
}
