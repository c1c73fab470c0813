"""SimPoint selection: deterministic k-means over projected BBVs.

Follows the SimPoint recipe: per-interval basic-block vectors are
L1-normalised, randomly projected down to a few dimensions (the
projection is a deterministic hash of each block leader pc, so no
projection matrix needs to be stored), clustered with k-means for
every candidate k, and scored with the Bayesian Information Criterion;
the smallest k whose BIC reaches 90% of the observed BIC range is
chosen, exactly as SimPoint 3.0 does. Each cluster contributes one
*simpoint*: the member interval closest to the centroid, weighted by
the cluster's share of all intervals.

Everything is seeded through :mod:`repro.utils.rng`, so selections are
bit-identical across machines and Python versions.
"""

import math

from repro.utils.rng import XorShift64, mix_hash

DEFAULT_DIMS = 16
DEFAULT_SEED = 0x51A19017
_KMEANS_ITERS = 100


class SimPoint:
    """One chosen interval and the cluster weight it represents.

    ``weight`` is the cluster's share of *dynamic instructions* (not
    interval count), so a merged or odd-length interval contributes in
    proportion to the instructions it actually stands in for; weights
    across a selection sum to 1.
    """

    __slots__ = ("index", "weight", "start_inst", "num_insts",
                 "cluster_size")

    def __init__(self, index, weight, start_inst, num_insts,
                 cluster_size):
        self.index = index
        self.weight = weight
        self.start_inst = start_inst
        self.num_insts = num_insts
        self.cluster_size = cluster_size

    def as_dict(self):
        return {"index": self.index, "weight": self.weight,
                "start_inst": self.start_inst,
                "num_insts": self.num_insts,
                "cluster_size": self.cluster_size}

    @classmethod
    def from_dict(cls, data):
        return cls(data["index"], data["weight"], data["start_inst"],
                   data["num_insts"], data["cluster_size"])

    def __repr__(self):
        return "<SimPoint interval=%d weight=%.3f start=%d>" % (
            self.index, self.weight, self.start_inst)


class SimPointSelection:
    """The chosen simpoints plus clustering quality metadata.

    ``error_bound`` is a heuristic relative error estimate: the
    weighted mean distance between each interval's (projected,
    normalised) BBV and its cluster representative, relative to the
    mean vector magnitude. 0 means every interval is identical to its
    representative; larger values mean the sample is less faithful.
    """

    def __init__(self, points, k, num_intervals, error_bound):
        self.points = list(points)
        self.k = k
        self.num_intervals = num_intervals
        self.error_bound = error_bound

    def coverage(self):
        """Fraction of dynamic instructions simulated in detail
        (simulated interval lengths over the run they stand in for)."""
        simulated = sum(p.num_insts for p in self.points)
        represented = sum(p.num_insts * p.cluster_size
                          for p in self.points)
        return simulated / represented if represented else 1.0

    def as_dict(self):
        return {"k": self.k, "num_intervals": self.num_intervals,
                "error_bound": self.error_bound,
                "points": [p.as_dict() for p in self.points]}

    @classmethod
    def from_dict(cls, data):
        return cls([SimPoint.from_dict(p) for p in data["points"]],
                   data["k"], data["num_intervals"], data["error_bound"])

    def __repr__(self):
        return "<SimPointSelection k=%d of %d interval(s) err<=%.3f>" % (
            self.k, self.num_intervals, self.error_bound)


# ---------------------------------------------------------------------------
# Projection
# ---------------------------------------------------------------------------
def project_bbv(bbv, num_insts, dims=DEFAULT_DIMS, seed=DEFAULT_SEED,
                rows=None):
    """L1-normalise a BBV and randomly project it to ``dims`` floats.

    The projection row for each block leader is generated from a hash of
    the leader pc, so equal leaders project identically everywhere and
    nothing needs to be stored or synchronised. ``rows`` memoises the
    rows drawn so far (leader -> row) across calls with the same
    ``dims`` and ``seed``, so each leader's row is drawn once; the
    vector is the same with or without it.
    """
    vec = [0.0] * dims
    if not num_insts:
        return vec
    if rows is None:
        rows = {}
    for leader, count in bbv.items():
        weight = count / num_insts
        row = rows.get(leader)
        if row is None:
            rng = XorShift64(mix_hash(leader ^ seed))
            row = rows[leader] = [2.0 * rng.random() - 1.0
                                  for _ in range(dims)]
        vec = [v + weight * r for v, r in zip(vec, row)]
    return vec


def _dist2(a, b):
    total = 0.0
    for x, y in zip(a, b):
        d = x - y
        total += d * d
    return total


# ---------------------------------------------------------------------------
# k-means
# ---------------------------------------------------------------------------
def _kmeans(vectors, k, rng):
    """Lloyd's algorithm with k-means++ seeding; deterministic via rng.

    Returns (assignment list, centroids, within-cluster sum of squares).
    """
    n = len(vectors)
    # k-means++ initialisation.
    centroids = [list(vectors[rng.randint(0, n - 1)])]
    while len(centroids) < k:
        dists = [min(_dist2(v, c) for c in centroids) for v in vectors]
        total = sum(dists)
        if total <= 0.0:
            # All remaining points coincide with a centroid; duplicate.
            centroids.append(list(vectors[rng.randint(0, n - 1)]))
            continue
        pick = rng.random() * total
        acc = 0.0
        chosen = n - 1
        for i, d in enumerate(dists):
            acc += d
            if acc >= pick:
                chosen = i
                break
        centroids.append(list(vectors[chosen]))

    assign = [-1] * n
    for _ in range(_KMEANS_ITERS):
        changed = False
        for i, v in enumerate(vectors):
            best, best_d = 0, _dist2(v, centroids[0])
            for c in range(1, k):
                d = _dist2(v, centroids[c])
                if d < best_d:
                    best, best_d = c, d
            if assign[i] != best:
                assign[i] = best
                changed = True
        if not changed:
            break
        dims = len(vectors[0])
        sums = [[0.0] * dims for _ in range(k)]
        counts = [0] * k
        for i, v in enumerate(vectors):
            counts[assign[i]] += 1
            target = sums[assign[i]]
            for j, x in enumerate(v):
                target[j] += x
        for c in range(k):
            if counts[c]:
                centroids[c] = [x / counts[c] for x in sums[c]]
            else:
                # Empty cluster: reseed to the point farthest from its
                # centroid (deterministic).
                far_i = max(range(n),
                            key=lambda i: _dist2(vectors[i],
                                                 centroids[assign[i]]))
                centroids[c] = list(vectors[far_i])
    wcss = sum(_dist2(vectors[i], centroids[assign[i]]) for i in range(n))
    return assign, centroids, wcss


def _bic(n, dims, k, cluster_sizes, wcss):
    """Bayesian Information Criterion (Pelleg & Moore x-means form)."""
    if n <= k:
        return float("-inf")
    sigma2 = wcss / (dims * (n - k))
    if sigma2 <= 0.0:
        return float("inf")
    loglik = 0.0
    for size in cluster_sizes:
        if size:
            loglik += size * math.log(size / n)
    loglik -= 0.5 * n * dims * math.log(2.0 * math.pi * sigma2)
    loglik -= 0.5 * dims * (n - k)
    params = k * (dims + 1)
    return loglik - 0.5 * params * math.log(n)


# ---------------------------------------------------------------------------
# Selection
# ---------------------------------------------------------------------------
def pick_simpoints(profile, max_k=8, dims=DEFAULT_DIMS, seed=DEFAULT_SEED):
    """Choose representative intervals from a :class:`BBVProfile`.

    Returns a :class:`SimPointSelection`; points are sorted by their
    position in the run and weights sum to 1.
    """
    intervals = profile.intervals
    if not intervals:
        raise ValueError("profile has no intervals")
    rows = {}
    vectors = [project_bbv(iv.bbv, iv.num_insts, dims, seed, rows)
               for iv in intervals]
    n = len(vectors)
    max_k = max(1, min(max_k, n))

    candidates = []
    for k in range(1, max_k + 1):
        rng = XorShift64(mix_hash(seed + 0x9E37 * k))
        assign, centroids, wcss = _kmeans(vectors, k, rng)
        sizes = [assign.count(c) for c in range(k)]
        bic = _bic(n, dims, k, sizes, wcss)
        candidates.append((k, assign, centroids, wcss, bic))
        if wcss <= 1e-12:
            break  # perfect clustering; larger k can't help

    # SimPoint 3.0 rule: smallest k scoring >= 90% of the BIC range.
    bics = [c[4] for c in candidates]
    finite = [b for b in bics if b not in (float("inf"), float("-inf"))]
    if any(b == float("inf") for b in bics):
        chosen = next(c for c in candidates if c[4] == float("inf"))
    elif finite:
        lo, hi = min(finite), max(finite)
        threshold = lo + 0.9 * (hi - lo)
        chosen = next(c for c in candidates
                      if c[4] != float("-inf") and c[4] >= threshold)
    else:
        chosen = candidates[0]
    k, assign, centroids, _wcss, _bic_score = chosen

    points = []
    rep_dist = {}
    profiled_insts = sum(iv.num_insts for iv in intervals)
    for c in range(k):
        members = [i for i in range(n) if assign[i] == c]
        if not members:
            continue
        rep = min(members, key=lambda i: _dist2(vectors[i], centroids[c]))
        interval = intervals[rep]
        cluster_insts = sum(intervals[i].num_insts for i in members)
        points.append(SimPoint(rep, cluster_insts / profiled_insts,
                               interval.start_inst, interval.num_insts,
                               len(members)))
        for i in members:
            rep_dist[i] = math.sqrt(_dist2(vectors[i], vectors[rep]))
    points.sort(key=lambda p: p.start_inst)

    mean_norm = sum(math.sqrt(_dist2(v, [0.0] * dims))
                    for v in vectors) / n
    mean_dist = sum(rep_dist[i] for i in range(n)) / n
    error_bound = mean_dist / mean_norm if mean_norm else 0.0
    return SimPointSelection(points, k, n, error_bound)
