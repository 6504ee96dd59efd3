"""Search for the subspace minimizing 2·dim(S+Σ) − dim S.

The minimum of this objective over all rational subspaces S is the real
dimension of the amoeba attached to the complex Σ.  No finite candidate
family is known to be sufficient in general, so results carry an honesty
contract: the reported value is the best objective found (an upper bound),
the lower bound is proven, and `certified` is set exactly when the two
meet.

The pairwise lower bound is max(dim Σ, max over cell pairs of
dim(C_i + C_j)).  Proof for one pair, with k = dim(S+Σ) ≥ dim(S+C_i),
dim(S+C_j): (S+C_i) + (S+C_j) contains C_i + C_j, and (S+C_i) ∩ (S+C_j)
contains S, so dim(C_i + C_j) ≤ dim(S+C_i) + dim(S+C_j) − dim S ≤
2k − dim S.  When the cheap candidates stay above it, the propagation
bound of `bounds` (proved there) raises it where it can.

The witness is the canonical minimizer: least value, then least dim S,
then least canonical basis.  The meet L = ∩ C_i of the cells is the
canonical minimizer over all subspaces whenever it attains the value.
With d = dim Σ, L lies in every cell and scores 2d − dim L.  Any S with
objective v has dim(S+Σ) ≥ d, so dim S ≥ 2d − v.  Equality forces
dim(S+C_i) = d for every cell, so S ⊆ L.

Every minimizer S lies between L and the join J = Σ C_i of the cells.
L lies in every cell, so (S+L) + C_i = S + C_i, and S+L scores
dim(S+L) − dim S below S.  Every cell lies in J, so S ∩ C_i =
(S ∩ J) ∩ C_i, each dim(S+C_i) exceeds dim((S ∩ J) + C_i) by
dim S − dim(S ∩ J), and S ∩ J scores that much below S.  Both drops are
strict unless L ⊆ S ⊆ J.  So the search over all subspaces is the search
for the complex {C_i / L} in J / L, of dimension d − dim L in ambient
dimension m = dim J − dim L, with every value shifted by dim L.

Neither {0} nor R^n needs a scan.  L lies in every cell, so
objective(L) = 2d − dim L ≤ 2d = objective({0}); every cell lies in J,
so objective(J) = dim J ≤ n = objective(R^n).  Each is strict unless the
two are equal.  So the default search scans L and J from the better of
{0} and R^n, and at m ≤ 4 (so at every n ≤ 4) a stop at the bound
there always yields the canonical minimizer over all subspaces:
- L, when it ties (so {0} at bound 2d): the argument above;
- J, at bound dim J < 2d − dim L (so R^n at bound n):
  with m ≤ 4 that forces d = dim J − 1 (or L = J, the case above), and
  a minimizer S then has k = dim(S+Σ) ∈ {d, dim J} and
  dim S = 2k − dim J.  k = dim J gives S = J; k = d gives S ⊆ L, so
  dim S ≤ dim L < 2d − dim J, a contradiction.
No candidate family can change a default answer that stops there.

Candidates come from the lattice generated by the cell spans under
pairwise sum and intersection.  A minimizer has to trade its own dimension
against how much every cell forces the sum to grow, and the lattice
elements are the natural rational subspaces realizing those trade-offs.
The cells alone seed it: {0} and R^n add nothing under sum and meet
(X + {0} = X ∩ R^n = X, X ∩ {0} = {0}, X + R^n = R^n).  The cells lie
in [L, J], which sums and meets never leave, so every member lies there.
The closure frequently does not terminate (already four generic planes in
R^3 breed new lines and planes forever), which is why `candidate_lattice`
takes a hard cap and reports in-band whether it reached a fixpoint.  A
capped candidate set still yields correct upper bounds; it only weakens
the search.  It is also the expensive part, so the search scores the
cheap candidates L and J first and builds the closure only when they
stay above the lower bound, the propagation bound included.  Only
`_parse_strategy` and `_checked_strategy` raise: a strategy is admitted
once, before any work, and the generators take what they are given.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass
from functools import reduce
from itertools import product
from math import gcd

from .frozen import Frozen
from .polyhedral import SpanComplex, _max_cell_sum, dim_sum_with_subspace
from .rational_linalg import Subspace, _check_ambient, _pivots_of, sum_rows

DEFAULT_CAP = 10000
DEFAULT_HEIGHT = 1
DEFAULT_STRATEGY = f"lattice(cap={DEFAULT_CAP})"

# largest height enumerated in R^n for n < 6; only 0 (family {0}) beyond
_MAX_HEIGHT = (3, 3, 3, 3, 1, 1)


class ResourceLimitError(RuntimeError):
    """An enumeration refused before any work; the CLI exits `exit_code`."""

    exit_code = 3


class CandidateSet(Frozen):
    """The lattice closure's subspaces plus a completeness flag.

    `complete` means the closure reached a fixpoint; a capped closure that
    was cut off reports False.
    """

    _fields = ("subspaces", "complete")

    def __init__(self, subspaces: tuple, complete: bool):
        self._store(subspaces, complete)

    def __iter__(self):
        return iter(self.subspaces)

    def __len__(self) -> int:
        return len(self.subspaces)


@dataclass(frozen=True, slots=True)
class SearchResult:
    """The best objective found, its proven lower bound and the witnesses;
    `upper_bound` and `certified` are derived, so certified holds exactly
    when the two bounds meet.

    The one value class left a dataclass: the benchmark's own test
    (`perfbench/test_perfbench.py`) calls `dataclasses.replace` on it.
    """

    value: int
    lower_bound: int
    witness_S: Subspace
    witness_T: Subspace
    strategy: str
    candidates_evaluated: int

    @property
    def upper_bound(self) -> int:
        return self.value

    @property
    def certified(self) -> bool:
        return self.value == self.lower_bound

    def to_json_dict(self) -> dict:
        return {
            "value": self.value,
            "lower_bound": self.lower_bound,
            "upper_bound": self.upper_bound,
            "certified": self.certified,
            "witness_S": [list(r) for r in self.witness_S.rows],
            "witness_T": [list(r) for r in self.witness_T.rows],
            "strategy": self.strategy,
            "candidates_evaluated": self.candidates_evaluated,
        }


class NearActionReport(Frozen):
    """Outcome of the dimension-drop test value < min(n, 2d).

    `proven` says the verdict holds over all subspaces: always for a drop,
    which its witness attains, and for no drop only when the search's
    proven lower bound reaches the threshold.
    """

    _fields = ("drop", "value", "threshold", "witness", "proven")

    def __init__(self, drop: bool, value: int, threshold: int,
                 witness: Subspace | None, proven: bool):
        self._store(drop, value, threshold, witness, proven)


def objective(sigma: SpanComplex, sub: Subspace) -> int:
    """2·dim(S+Σ) − dim S; never below dim Σ."""
    return 2 * dim_sum_with_subspace(sigma, sub) - sub.dim


def candidate_lattice(sigma: SpanComplex, cap: int = DEFAULT_CAP) -> CandidateSet:
    """Closure of the cell spans under pairwise sum/intersection.

    Pairs are processed in generation order (all pairs among earlier
    elements before pairs involving later ones), and each pair's join and
    meet come from `Subspace.sum_intersect`, the join first.  That order
    keeps the integer entries of intermediate bases small, where a
    depth-first order lets them explode.  Stops at a fixpoint or after
    `cap` distinct subspaces, whichever comes first, and says which one
    happened.  The cells seed it as they come, canonical and sorted; {0}
    and R^n are members only when a sum or meet yields them.  The caller
    admits the cap: at least the number of cells.
    """
    found = list(sigma.cells)
    seen = set(found)
    complete = True
    i = 1
    while complete and i < len(found):
        for j in range(i):
            for c in found[i].sum_intersect(found[j]):
                if c in seen:
                    continue
                if len(found) >= cap:
                    complete = False
                    break
                seen.add(c)
                found.append(c)
            if not complete:
                break
        i += 1
    found.sort(key=Subspace.sort_key)
    return CandidateSet(tuple(found), complete)


def exhaustive_candidates(n: int, height_bound: int) -> tuple:
    """Every subspace spanned by integer vectors with entries in
    [−height_bound, height_bound], sorted canonically.

    Grown breadth-first one primitive generator at a time, as bare
    canonical rows fed to `sum_rows`; each Subspace is built once, at the
    end.  `_checked_strategy` admits the height: at most `_MAX_HEIGHT[n]`.
    Sizes (n, height: members), as this enumeration counts them: 1, 3: 2;
    2, 1: 6; 2, 2: 10; 2, 3: 18; 3, 1: 40; 3, 2: 400; 3, 3: 3,364 (1-2 s);
    4, 1: 1,084; 5, 1: 190,264 (about 2 minutes), timed in-process on a
    shared 2-vCPU host.  (4, 2) and (6, 1) each have over 200,000.  The
    family at height h lies in the one at h + 1, and the family in R^n,
    padded with zeros, in the one in R^(n+1); so every other refused pair
    with height ≤ 3 is larger still.
    """
    vectors = _primitive_vectors(n, height_bound)
    seen = {()}
    frontier = [()]
    while frontier:
        grown = []
        for rows in frontier:
            ech = tuple(zip(_pivots_of(rows), rows))
            for v in vectors:
                bigger = sum_rows(ech, (v,), n)
                if bigger is not None and bigger not in seen:
                    seen.add(bigger)
                    grown.append(bigger)
        frontier = grown
    return tuple(Subspace.of(n, rows)
                 for rows in sorted(seen, key=lambda rows: (len(rows), rows)))


def _primitive_vectors(n: int, height: int) -> list:
    """Primitive integer vectors with entries in [−height, height], first
    nonzero entry positive (one representative per line), sorted."""
    if not height:
        return []  # the zero vector alone, which spans nothing
    return [v for v in product(range(-height, height + 1), repeat=n)
            if next((x for x in v if x), 0) > 0 and gcd(*v) == 1]


_STRATEGY_RE = re.compile(r"\s*(lattice|exhaustive)\s*"
                          r"(?:\(\s*([a-z]+)\s*=\s*([0-9]+)\s*\)\s*)?\Z")

# each kind's one parameter, its default and its least legal value
_STRATEGY_PARAMS = {"lattice": ("cap", DEFAULT_CAP, 1),
                    "exhaustive": ("height", DEFAULT_HEIGHT, 0)}


def _parse_strategy(text: str) -> tuple:
    """Normalize a strategy descriptor: `kind` or `kind(name=N)`.

    Accepts e.g. "lattice", "lattice(cap=500)", "exhaustive(height=2)".
    Returns (kind, its parameter's value, canonical descriptor string).
    """
    m = isinstance(text, str) and _STRATEGY_RE.match(text)
    if not m:
        raise ValueError(f"invalid strategy {text!r}")
    kind, key, raw = m.groups()
    name, value, least = _STRATEGY_PARAMS[kind]
    if key is not None:
        if key != name:
            raise ValueError(f"strategy {kind} takes {name}, not {key}")
        value = int(raw)
    if value < least:
        raise ValueError(f"{name} must be at least {least}")
    # one shared string per strategy, however many results name it
    return kind, value, sys.intern(f"{kind}({name}={value})")


def _checked_strategy(sigma: SpanComplex, strategy: str | None) -> tuple:
    """`_parse_strategy` of the descriptor (None for the default), once
    its parameter is admitted on sigma.  The closure starts from the
    cells, so a cap below their number is refused, not truncated; a
    height above `_MAX_HEIGHT[n]` is refused, not enumerated."""
    kind, param, descriptor = _parse_strategy(
        DEFAULT_STRATEGY if strategy is None else strategy)
    n, cells = sigma.ambient_dim, len(sigma.cells)
    if kind == "lattice" and param < cells:
        raise ValueError(f"cap {param} below number of cells = {cells}")
    limit = _MAX_HEIGHT[n] if n < len(_MAX_HEIGHT) else 0
    if kind == "exhaustive" and param > limit:
        raise ResourceLimitError(
            f"exhaustive enumeration refused for n={n}, "
            f"height={param} (R^{n} admits height ≤ {limit})")
    return kind, param, descriptor


def amoeba_dim(sigma: SpanComplex,
               strategy: str | None = None) -> SearchResult:
    """Minimize the objective over the strategy's candidates; the default
    strategy is `DEFAULT_STRATEGY`.

    The cheap candidates are scored first: for `lattice`, the meet
    L = ∩ C_i and the join J = Σ C_i of the cells; for `exhaustive`, its
    whole height enumeration.  {0} and R^n, which score 2d and n, only
    seed the scan.  The lower bound is the pairwise bound; when the best
    value is still above it, the propagation bound of `bounds`, which
    can only raise it, replaces it.  The lattice closure is built only
    when the best value is above that, and then only its new members
    are scored; `candidates_evaluated` counts the strategy's own
    candidates scanned.  The witness is the canonical minimizer among
    them, {0} and R^n: smallest value, then smallest dim S, then the
    lexicographically smallest canonical basis, whatever the scoring
    order.  The module docstring proves the bound, and that a `lattice`
    stop before the closure at dim J − dim L ≤ 4 yields the canonical
    minimizer over all subspaces.

    Refusals come before any scoring, from `_checked_strategy`: a cap
    below the number of cells (ValueError), and a height the enumeration
    refuses (ResourceLimitError).
    """
    n = sigma.ambient_dim
    d = sigma.dim
    kind, param, descriptor = _checked_strategy(sigma, strategy)
    if kind == "lattice":
        cheap = {reduce(Subspace.intersect, sigma.cells),
                 reduce(Subspace.sum, sigma.cells)}
    else:
        cheap = exhaustive_candidates(n, param)
    lower = _pairwise_lower_bound(sigma)

    # {0} scores 2d and R^n scores n, so the better of the two seeds the
    # scan; R^n's rows are built only when it is that one
    best = _score(sigma, cheap, (n, n, Subspace.full(n).rows) if n < 2 * d
                  else (2 * d, 0, ()))
    evaluated = len(cheap)
    if best[0] > lower:
        # imported here: searches that the pair bound settles never
        # compile it
        from .bounds import propagation_bound

        lower = propagation_bound(sigma, lower, best[0])
    if kind == "lattice" and best[0] > lower:
        fresh = [sub for sub in candidate_lattice(sigma, param)
                 if sub not in cheap]
        best = _score(sigma, fresh, best)
        evaluated += len(fresh)
    value, _, rows = best
    # {0}, R^n and the cells come as the instances that exist already, so
    # results kept in bulk do not each hold a copy
    witness = next((sub for sub in sigma.cells if sub.rows == rows),
                   None) or Subspace.of(n, rows)
    return SearchResult(
        value=value,
        lower_bound=lower,
        witness_S=witness,
        witness_T=reduce_torus(sigma, witness),
        strategy=descriptor,
        candidates_evaluated=evaluated,
    )


def _pairwise_lower_bound(sigma: SpanComplex) -> int:
    """max(dim Σ, max over cell pairs of dim(C_i + C_j)), proven by the
    pair lemma in the module docstring.  Stops early at min(2·dim Σ, n),
    which no pair can exceed."""
    cells = sigma.cells
    top = min(2 * sigma.dim, sigma.ambient_dim)
    bound = sigma.dim
    for j in range(1, len(cells)):
        bound = max(bound, _max_cell_sum(cells[:j], cells[j], top)[0])
        if bound == top:
            return bound
    return bound


def _score(sigma: SpanComplex, cands, best: tuple) -> tuple:
    """Fold candidates into `best`, a (value, dim S, rows of S) triple;
    the least triple wins.  Its one precondition: `best` is attained,
    so pruning against `best[0]` drops only candidates that cannot
    win."""
    n = sigma.ambient_dim
    d = sigma.dim
    cells = sigma.cells
    for sub in cands:
        s = len(sub.rows)
        limit = best[0]
        if max(2 * d - s, s) > limit:
            continue
        # the running cell maximum only grows, so the scan can stop once
        # it reaches the smallest sum whose objective exceeds `limit`
        stop = min(n, (limit + s) // 2 + 1)
        key = (2 * _max_cell_sum(cells, sub, stop)[0] - s, s, sub.rows)
        if key < best:
            best = key
    return best


def reduce_torus(sigma: SpanComplex, sub: Subspace) -> Subspace:
    """Shrink S to T ⊆ S with dim T = dim(S+Σ) − dim Σ and dim(T+Σ) = dim(S+Σ).

    Fix the first cell C0 (canonical order) whose sum with S attains
    M = dim(S+Σ), then walk the canonical basis of S, keeping exactly the
    vectors that still grow ⟨C0⟩ + T.  Every kept vector raises that sum's
    dimension by one, so the walk stops after M − dim Σ of them: T has the
    advertised dimension, dim(T+Σ) ≥ dim(⟨C0⟩+T) = M, and T ⊆ S gives the
    reverse inequality.  Greedily growing T against *all* cells instead can
    overshoot: a vector may be forced by one cell while another cell
    already absorbed it, and the result ends up larger than M − dim Σ.
    """
    _check_ambient(sigma, sub)
    n = sigma.ambient_dim
    target, grown = _max_cell_sum(sigma.cells, sub, n)
    kept = []
    for v in sub.rows:
        if len(grown.rows) == target:
            break
        bigger = grown.sum(Subspace(n, (v,)))
        if bigger is grown:
            continue
        kept.append(v)
        grown = bigger
    return Subspace.of(n, tuple(kept))


def detect_near_action(sigma: SpanComplex) -> NearActionReport:
    """Dimension-drop test: value < min(n, 2d)?

    When the drop holds, the witness scores below both 2d and n, so it
    is neither {0} nor R^n, which score 2d and n.
    """
    result = amoeba_dim(sigma)
    threshold = min(sigma.ambient_dim, 2 * sigma.dim)
    drop = result.value < threshold
    return NearActionReport(
        drop=drop,
        value=result.value,
        threshold=threshold,
        witness=result.witness_S if drop else None,
        proven=drop or result.lower_bound >= threshold,
    )
