"""A proven lower bound beyond cell pairs: bounds propagated over a family.

For a subspace S and a pure complex Σ of dimension d in R^n, write
t = dim S and m = min_i dim(S ∩ C_i) over the cells.  Since
dim(S + C_i) = t + d − dim(S ∩ C_i), dim(S+Σ) = t + d − m and
objective(S) = 2d + t − 2m.  So a value v needs a pair (t, m) with
2d + t − 2m = v that some subspace realizes, and a pair with no such
subspace can be refuted by counting dimensions.

The counts are x_W = dim(S ∩ W) over a finite family: the cells and the
join and meet of each cell pair ({0} among them when a meet is; R^n,
where x = t, stays implicit).  Each rule below holds for every S:
- range: max(0, t + dim W − n) ≤ x_W ≤ min(t, dim W), because
  dim(S + W) ≤ n; and x_C ≥ m for each cell C, by the choice of m;
- inclusion, for U ⊆ W: x_U ≤ x_W ≤ x_U + dim W − dim U.  S ∩ U lies in
  S ∩ W, and (S ∩ W) ∩ U = S ∩ U gives
  x_W − x_U = dim((S ∩ W) + U) − dim U ≤ dim W − dim U;
- modular, for a cell pair A, B: x_A + x_B ≤ x_{A+B} + x_{A∩B}.
  (S ∩ A) + (S ∩ B) lies in S ∩ (A+B), and (S ∩ A) ∩ (S ∩ B) =
  S ∩ (A∩B), so x_A + x_B − x_{A∩B} ≤ x_{A+B};
- forced containment: x_W = dim W means W ⊆ S.  Then the sum F of all
  such W lies in S too, so dim F ≤ t and x_W ≥ dim(W ∩ F) for every W.

An inclusion or modular rule is an inequality Σ x_plus − Σ x_minus ≥ r.
It tightens integer bounds lo_W ≤ x_W ≤ hi_W: each plus term is at least
r plus the lo of every minus term minus the hi of every other plus term,
and each minus term at most the reverse.  Start from the range rule and
apply the rules until nothing changes.  By induction on the steps, the
true x_W of every S realizing (t, m) stays inside [lo_W, hi_W].  So a
pair whose bounds cross (some lo_W > hi_W, or dim F > t) has no S, and
every S scores the value of a pair that survives.  Hence every objective
is at least the least surviving value that is not refuted already:
`propagation_bound` returns the least one in [lower, upper), or upper
when none survives there; the values below `lower` are refuted by the
proven bound it is given.

The rules only count dimensions over a finite family, so the bound can
stay below the least value; it never claims more than this proves.
"""

from __future__ import annotations


def propagation_bound(sigma, lower: int, upper: int) -> int:
    """The least value in [lower, upper) of a pair (t, m) that the rules
    leave standing, or `upper` when none does: a proven lower bound on
    the objective whenever `lower` is one."""
    n, d = sigma.ambient_dim, sigma.dim
    family = _Family(sigma)
    for v in range(lower, upper):
        for m in range(d + 1):
            t = v - 2 * d + 2 * m
            if m <= t <= n - d + m and family.propagate(t, m) is not None:
                return v
    return upper


class _Family:
    """The cells (first, in order) and each cell pair's join and meet,
    without repeats, and the rules on their counts as (plus, minus, r)
    triples, each meaning Σ x_plus − Σ x_minus ≥ r."""

    def __init__(self, sigma):
        cells = sigma.cells
        index = {cell: i for i, cell in enumerate(cells)}
        self.modular = []
        for j in range(1, len(cells)):
            for i in range(j):
                join, meet = cells[i].sum_intersect(cells[j])
                plus = (index.setdefault(join, len(index)),
                        index.setdefault(meet, len(index)))
                self.modular.append((plus, (i, j), 0))
        self.members = list(index)
        self.dims = [w.dim for w in self.members]
        self.inclusions = []
        for w, big in enumerate(self.members):
            for u, small in enumerate(self.members):
                gap = big.dim - small.dim
                if gap > 0 and big.sum_dim(small.rows) == big.dim:
                    self.inclusions += [((w,), (u,), 0), ((u,), (w,), -gap)]
        self.ambient_dim = sigma.ambient_dim
        self.cell_count = len(cells)

    def start(self, t: int, m: int) -> tuple:
        """The range rule's bounds (lo, hi) for the pair (t, m)."""
        lo = [max(0, t + k - self.ambient_dim) for k in self.dims]
        hi = [min(t, k) for k in self.dims]
        for c in range(self.cell_count):
            lo[c] = max(lo[c], m)
        return lo, hi

    def propagate(self, t: int, m: int):
        """The bounds (lo, hi) once the rules reach a fixpoint, or None
        when they refute the pair (t, m)."""
        lo, hi = self.start(t, m)
        members, dims = self.members, self.dims
        rules = self.inclusions + self.modular
        forced = set()
        changed = True
        while changed:
            changed = False
            for plus, minus, r in rules:
                top = r + sum(lo[q] for q in minus) - sum(hi[p] for p in plus)
                for p in plus:
                    if top + hi[p] > lo[p]:
                        lo[p] = top + hi[p]
                        changed = True
                for q in minus:
                    if lo[q] - top < hi[q]:
                        hi[q] = lo[q] - top
                        changed = True
            fresh = [w for w, k in enumerate(dims)
                     if lo[w] == k and w not in forced]
            if fresh:
                forced.update(fresh)
                f = members[fresh[0]]
                for w in forced:
                    f = f.sum(members[w])
                if f.dim > t:
                    return None
                for w, sub in enumerate(members):
                    inside = dims[w] + f.dim - f.sum_dim(sub.rows)
                    if inside > lo[w]:
                        lo[w] = inside
                        changed = True
            # both passes only tighten, so crossed bounds stay crossed
            if any(a > b for a, b in zip(lo, hi)):
                return None
        return lo, hi
