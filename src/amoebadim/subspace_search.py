"""Search for the subspace minimizing 2·dim(S+Σ) − dim S.

The minimum of this objective over all rational subspaces S is the real
dimension of the amoeba attached to the complex Σ.  No finite candidate
family is known to be sufficient in general, so results carry an honesty
contract: the reported value is the best objective found (an upper bound),
the lower bound is proven, and `certified` is set exactly when the two
meet.

The lower bound is max(dim Σ, max over cell pairs of dim(C_i + C_j)).
Proof for one pair, with k = dim(S+Σ) ≥ dim(S+C_i), dim(S+C_j):
(S+C_i) + (S+C_j) contains C_i + C_j, and (S+C_i) ∩ (S+C_j) contains S,
so dim(C_i + C_j) ≤ dim(S+C_i) + dim(S+C_j) − dim S ≤ 2k − dim S.

The witness is the canonical minimizer: least value, then least dim S,
then least canonical basis.  The meet L = ∩ C_i of the cells is the
canonical minimizer over all subspaces whenever it attains the value.
With d = dim Σ, L lies in every cell and scores 2d − dim L.  Any S with
objective v has dim(S+Σ) ≥ d, so dim S ≥ 2d − v.  Equality forces
dim(S+C_i) = d for every cell, so S ⊆ L.

So the default search scores L with {0} and R^n before anything else, and
at n ≤ 4 a stop at the bound there always yields the canonical minimizer
over all subspaces:
- {0}, at bound 2d: the only subspace of dimension 0;
- L, when it ties: the argument above;
- R^n, at bound n < 2d: for n ≤ 4 that forces d = n − 1 (or L = R^n),
  and an S scoring n then has k = dim(S+Σ) ∈ {d, n} and dim S = 2k − n.
  k = n gives S = R^n; k = d gives S ⊆ L, and then L scores at most n
  and would have won.
No candidate family can change a default answer that stops there.

Candidates come from the lattice generated by the cell spans under
pairwise sum and intersection.  A minimizer has to trade its own dimension
against how much every cell forces the sum to grow, and the lattice
elements are the natural rational subspaces realizing those trade-offs.
The closure frequently does not terminate (already four generic planes in
R^3 breed new lines and planes forever), which is why `candidate_lattice`
takes a hard cap and reports in-band whether it reached a fixpoint.  A
capped candidate set still yields correct upper bounds; it only weakens
the search.  It is also the expensive part, so the search scores the
cheap candidates first ({0}, R^n and L, which the closure holds anyway)
and builds the closure only when they stay above the lower bound.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass
from functools import reduce
from itertools import product
from math import gcd

from .polyhedral import SpanComplex, _max_cell_sum, dim_sum_with_subspace
from .rational_linalg import Subspace, sum_rows

DEFAULT_CAP = 10000
DEFAULT_HEIGHT = 1
DEFAULT_STRATEGY = f"lattice(cap={DEFAULT_CAP})"

_EXHAUSTIVE_MAX_AMBIENT = 6
_EXHAUSTIVE_MAX_HEIGHT = 3
_EXHAUSTIVE_BUDGET = 200000


class ResourceLimitError(RuntimeError):
    """Raised instead of silently truncating an exhaustive enumeration."""


@dataclass(frozen=True)
class CandidateSet:
    """The lattice closure's subspaces plus a completeness flag.

    `complete` means the closure reached a fixpoint; a capped closure that
    was cut off reports False.
    """

    subspaces: tuple
    complete: bool

    def __iter__(self):
        return iter(self.subspaces)

    def __len__(self) -> int:
        return len(self.subspaces)


@dataclass(frozen=True, slots=True)
class SearchResult:
    """The best objective found, its proven lower bound and the witnesses;
    `upper_bound` and `certified` are derived, so certified holds exactly
    when the two bounds meet."""

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


@dataclass(frozen=True)
class NearActionReport:
    """Outcome of the dimension-drop test value < min(n, 2d).

    `proven` says the verdict holds over all subspaces: always for a drop,
    which its witness attains, and for no drop only when the search's
    proven lower bound reaches the threshold.
    """

    drop: bool
    value: int
    threshold: int
    witness: Subspace | None
    proven: bool


def objective(sigma: SpanComplex, sub: Subspace) -> int:
    """2·dim(S+Σ) − dim S; never below dim Σ."""
    return 2 * dim_sum_with_subspace(sigma, sub) - sub.dim


def _check_cap(sigma: SpanComplex, cap: int) -> None:
    """The closure starts from the cells, {0} and R^n; a cap below that
    is refused, not truncated."""
    if cap < len(sigma.cells) + 2:
        raise ValueError(
            f"cap {cap} below number of cells + 2 = {len(sigma.cells) + 2}"
        )


def candidate_lattice(sigma: SpanComplex, cap: int = DEFAULT_CAP) -> CandidateSet:
    """Closure of the cell spans ∪ {0, R^n} under pairwise sum/intersection.

    Pairs are processed in generation order (all pairs among earlier
    elements before pairs involving later ones), and each pair's join and
    meet come from `Subspace.sum_intersect`, the join first.  That order
    keeps the integer entries of intermediate bases small, where a
    depth-first order lets them explode.  Stops at a fixpoint or after
    `cap` distinct subspaces, whichever comes first, and says which one
    happened.
    """
    _check_cap(sigma, cap)
    n = sigma.ambient_dim
    found = sorted({Subspace.zero(n), Subspace.full(n), *sigma.cells},
                   key=Subspace.sort_key)
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
    end.  Large requests are refused outright, before any work (height 0
    is admitted in every dimension: its family is {0}), and so is any run
    past `_EXHAUSTIVE_BUDGET` subspaces, rather than silently truncating.
    """
    if n < 0:
        raise ValueError("ambient dimension < 0")
    if height_bound < 0:
        raise ValueError("height bound < 0")
    if height_bound and (n > _EXHAUSTIVE_MAX_AMBIENT
                         or height_bound > _EXHAUSTIVE_MAX_HEIGHT):
        raise ResourceLimitError(
            f"exhaustive enumeration refused for n={n}, "
            f"height={height_bound} (supported: n ≤ {_EXHAUSTIVE_MAX_AMBIENT}, "
            f"height ≤ {_EXHAUSTIVE_MAX_HEIGHT})"
        )
    vectors = _primitive_vectors(n, height_bound) if height_bound else ()
    seen = {()}
    frontier = [()]
    while frontier:
        grown = []
        for rows in frontier:
            if len(rows) == n:
                continue
            ech = tuple((next(i for i, x in enumerate(r) if x), r)
                        for r in rows)
            for v in vectors:
                bigger = sum_rows(ech, (v,), n)
                if bigger is None or bigger in seen:
                    continue
                if len(seen) >= _EXHAUSTIVE_BUDGET:
                    raise ResourceLimitError(
                        "exhaustive enumeration exceeded "
                        f"{_EXHAUSTIVE_BUDGET} subspaces"
                    )
                seen.add(bigger)
                grown.append(bigger)
        frontier = grown
    return tuple(Subspace.of(n, rows)
                 for rows in sorted(seen, key=lambda rows: (len(rows), rows)))


def _primitive_vectors(n: int, height: int) -> list:
    """Primitive integer vectors with entries in [−height, height], first
    nonzero entry positive (one representative per line), sorted."""
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
    m = _STRATEGY_RE.match(text)
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


def amoeba_dim(sigma: SpanComplex,
               strategy: str | None = None) -> SearchResult:
    """Minimize the objective over the strategy's candidates; the default
    strategy is `DEFAULT_STRATEGY`.

    The cheap candidates are scored first: {0}, R^n and, for `lattice`,
    the meet L = ∩ C_i of the cells; for `exhaustive`, its whole height
    enumeration.  The lattice closure is built only when the best value is
    still above the proven pairwise lower bound, and then only its new
    members are scored.  The witness is the canonical minimizer among the
    candidates scored: smallest value, then smallest dim S, then the
    lexicographically smallest canonical basis, whatever the scoring
    order.  The module docstring proves the bound, and that a `lattice`
    stop before the closure at n ≤ 4 yields the canonical minimizer over
    all subspaces.

    Refusals come before any scoring: a cap below the number of cells
    plus 2 (ValueError), and a height the enumeration refuses outright
    (ResourceLimitError, raised by `exhaustive_candidates` before it
    builds anything).
    """
    n = sigma.ambient_dim
    d = sigma.dim
    kind, param, descriptor = _parse_strategy(
        DEFAULT_STRATEGY if strategy is None else strategy)
    cheap = {Subspace.zero(n), Subspace.full(n)}
    if kind == "lattice":
        _check_cap(sigma, param)
        cheap.add(reduce(Subspace.intersect, sigma.cells))
    else:
        cheap.update(exhaustive_candidates(n, param))
    lower = _pairwise_lower_bound(sigma)

    # {0} scores 2d; it is among the cheap candidates, and R^n too
    best = _score(sigma, sorted(cheap, key=Subspace.sort_key), (2 * d, 0, ()))
    evaluated = len(cheap)
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
        rows = cells[j].rows
        for i in range(j):
            got = cells[i].sum_dim(rows)
            if got > bound:
                bound = got
                if bound == top:
                    return bound
    return bound


def _score(sigma: SpanComplex, cands, best: tuple) -> tuple:
    """Fold candidates into `best`, a (value, dim S, rows of S) triple;
    the least triple wins.  The pruning takes min(2·dim Σ, n) as a value
    some candidate attains, so R^n must be among `cands` or scored
    already."""
    n = sigma.ambient_dim
    d = sigma.dim
    cells = sigma.cells
    ub = min(2 * d, n)
    for sub in cands:
        s = len(sub.rows)
        best_val = best[0]
        limit = best_val if best_val < ub else ub
        bound = 2 * d - s
        if s > bound:
            bound = s
        if bound > limit:
            continue
        # the running cell maximum only grows, so the scan can stop once
        # it reaches the smallest sum whose objective exceeds `limit`
        val = 2 * _max_cell_sum(cells, sub, min(n, (limit + s) // 2 + 1)) - s
        if val <= limit:
            key = (val, s, sub.rows)
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
    n = sigma.ambient_dim
    target = dim_sum_with_subspace(sigma, sub)
    if target == sigma.dim:
        return Subspace.zero(n)
    anchor = next(
        cell for cell in sigma.cells if cell.sum_dim(sub.rows) == target
    )
    grown = anchor
    kept = []
    for v in sub.rows:
        if len(grown.rows) == target:
            break
        bigger = grown.sum_with_rows((v,))
        if bigger is grown:
            continue
        kept.append(v)
        grown = bigger
    return Subspace.of(n, tuple(kept))


def detect_near_action(sigma: SpanComplex,
                       strategy: str | None = None) -> NearActionReport:
    """Dimension-drop test: value < min(n, 2d)?

    When the drop holds, the minimizing subspace satisfies both strict
    inequalities 2d > objective(S) and n > objective(S), and it is
    automatically neither {0} nor R^n (those two candidates pin the
    objective to 2d and n respectively).
    """
    result = amoeba_dim(sigma, strategy)
    threshold = min(sigma.ambient_dim, 2 * sigma.dim)
    drop = result.value < threshold
    return NearActionReport(
        drop=drop,
        value=result.value,
        threshold=threshold,
        witness=result.witness_S if drop else None,
        proven=drop or result.lower_bound >= threshold,
    )
