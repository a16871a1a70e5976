package sparse

// minDegreeOrderLast computes a fill-reducing column ordering of the pattern
// (colPtr, row) by greedy minimum degree on the symmetrized adjacency
// graph of A + Aᵀ. MNA matrices are nearly structurally symmetric, so the
// symmetric heuristic orders them well; ties break toward the lowest index
// to keep the ordering deterministic. The columns in last are forced to the
// end of the elimination order (min degree within each group): the hot
// columns of a partial refactorization. Returns q with q[t] = the original
// column eliminated at step t.
//
// The quotient-graph sophistication of real AMD is unnecessary at circuit
// sizes (tens of unknowns): the dense-bitset elimination below is O(n³/64)
// worst case and runs once per circuit topology.
func minDegreeOrderLast(n int, colPtr, row []int32, last []int32) []int32 {
	words := (n + 63) / 64
	adj := make([]uint64, n*words)
	set := func(i, j int) {
		if i == j {
			return
		}
		adj[i*words+j/64] |= 1 << uint(j%64)
		adj[j*words+i/64] |= 1 << uint(i%64)
	}
	for j := 0; j < n; j++ {
		for p := colPtr[j]; p < colPtr[j+1]; p++ {
			set(int(row[p]), j)
		}
	}
	deg := make([]int, n)
	for i := 0; i < n; i++ {
		d := 0
		for w := 0; w < words; w++ {
			d += popcount(adj[i*words+w])
		}
		deg[i] = d
	}
	alive := make([]bool, n)
	for i := range alive {
		alive[i] = true
	}
	isLast := make([]bool, n)
	remaining := 0
	for _, c := range last {
		if !isLast[c] {
			isLast[c] = true
			remaining++
		}
	}
	q := make([]int32, 0, n)
	scratch := make([]uint64, words)
	for len(q) < n {
		// Deferred columns are only eligible once everything else is gone.
		deferLast := len(q) < n-remaining
		best, bestDeg := -1, int(^uint(0)>>1)
		for i := 0; i < n; i++ {
			if alive[i] && deg[i] < bestDeg && !(deferLast && isLast[i]) {
				best, bestDeg = i, deg[i]
			}
		}
		q = append(q, int32(best))
		alive[best] = false
		// Eliminate: neighbors of best become a clique.
		copy(scratch, adj[best*words:(best+1)*words])
		for i := 0; i < n; i++ {
			if !alive[i] || scratch[i/64]&(1<<uint(i%64)) == 0 {
				continue
			}
			// Remove best from i's adjacency, union in best's neighbors.
			row := adj[i*words : (i+1)*words]
			row[best/64] &^= 1 << uint(best%64)
			for w := 0; w < words; w++ {
				row[w] |= scratch[w]
			}
			row[i/64] &^= 1 << uint(i%64)
			// Mask out already-eliminated nodes and recount the degree.
			d := 0
			for w := 0; w < words; w++ {
				v := row[w]
				for b := 0; b < 64; b++ {
					if v&(1<<uint(b)) != 0 {
						if !alive[w*64+b] {
							row[w] &^= 1 << uint(b)
						} else {
							d++
						}
					}
				}
			}
			deg[i] = d
		}
	}
	return q
}

func popcount(v uint64) int {
	n := 0
	for v != 0 {
		v &= v - 1
		n++
	}
	return n
}
