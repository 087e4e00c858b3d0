package cache

// UCPLookahead implements the greedy "lookahead" partitioning algorithm of
// utility-based cache partitioning (Qureshi & Patt, MICRO 2006). Given one
// miss profile per core (misses as a function of allocated ways, index 0 =
// zero ways) and the total number of ways, it returns an allocation that
// greedily maximizes marginal utility (miss reduction per way), giving every
// core at least minWays.
//
// This is the classic miss-minimizing partitioner the paper contrasts with:
// it has no notion of per-application QoS.
func UCPLookahead(profiles [][]float64, totalWays, minWays int) []int {
	n := len(profiles)
	if n == 0 {
		return nil
	}
	if minWays < 0 {
		minWays = 0
	}
	alloc := make([]int, n)
	remaining := totalWays
	for i := range alloc {
		alloc[i] = minWays
		remaining -= minWays
	}
	if remaining < 0 {
		panic("cache: totalWays cannot satisfy minWays")
	}

	maxUtility := func(core int) (bestWays int, bestPerWay float64) {
		p := profiles[core]
		cur := alloc[core]
		bestPerWay = -1
		for w := cur + 1; w < len(p) && w-cur <= remaining; w++ {
			gain := p[cur] - p[w]
			perWay := gain / float64(w-cur)
			if perWay > bestPerWay {
				bestPerWay = perWay
				bestWays = w - cur
			}
		}
		return bestWays, bestPerWay
	}

	for remaining > 0 {
		bestCore, bestWays := -1, 0
		bestPerWay := -1.0
		for c := 0; c < n; c++ {
			w, u := maxUtility(c)
			if w > 0 && u > bestPerWay {
				bestCore, bestWays, bestPerWay = c, w, u
			}
		}
		if bestCore < 0 {
			// No core benefits from more ways; hand out the rest evenly so
			// the full cache stays in use.
			for c := 0; remaining > 0; c = (c + 1) % n {
				alloc[c]++
				remaining--
			}
			break
		}
		alloc[bestCore] += bestWays
		remaining -= bestWays
	}
	return alloc
}
