"""The exterior algebra of L = g^{1,0} + g^{*(0,1)} and its operators.

Basis monomials are X_P ^ wbar_Q with both index blocks strictly ascending;
every generator (vector or form) has exterior degree 1, so generators
anticommute and the bidegree of a monomial is (|P|, |Q|).

:class:`ExteriorComplex` binds a validated algebra and provides the three
graded operators as exact sparse matrices per bidegree block:

* ``dbar`` -- on generators, dbar(wbar^m) = 0 and
  dbar(X_j) = sum_{k,m} A^m_{kj} wbar^k ^ X_m;
* ``schouten`` -- the graded bracket with generator rules
  [X_i, X_j] = 0, [wbar^i, wbar^j] = 0 and
  [X_i, wbar^m] = -sum_b conj(A^m_{ib}) wbar^b = -[wbar^m, X_i];
* ``operator_block`` -- the matrix of dbar or ad_Lambda restricted to a
  bidegree block in the canonical monomial bases.  dbar blocks are
  memoized per bidegree, since the Dolbeault table, the total complex and
  the obstruction read them again; an ad block is read once, so it is
  built and not kept.

A multivector is its own memo key, None standing for dbar: generator
images, image tables and the banded pivot counts of
:mod:`nilpoisson.cohomology` are all keyed by the :class:`GradedElement`.
Its hash runs over the canonical (monomial, coefficient triple) pairs,
order-independently, so equal elements share every memo entry however
they were built; it is computed on the first lookup and kept.

Positions are arithmetic; no basis is materialised to find one.  A
complex runs over a tuple of vector indices and a tuple of form indices,
both 1..n for an algebra; the core of :meth:`ExteriorComplex.split` keeps
the generators that are not free, and is the complex itself when all
are.  The canonical basis of B^{p,q} runs over P in
``combinations(vector indices, p)`` outer and Q in
``combinations(form indices, q)`` inner, so X_P ^ wbar_Q sits at
rank_p[P] * C(n_form, q) + rank_q[Q], where rank_k is the position of an
ascending k-tuple in ``combinations`` order on its side (its index in the
combinatorial number system; Knuth, TAOCP Vol. 4A, 7.2.1.3).  Each rank_k
is a dict, built on first use of degree k and kept, one per side (one
for both when the sides run over the same indices); block dimensions are
the binomial products C(n_vec, p) C(n_form, q), so sizing a degree never
builds a table.  :meth:`ExteriorComplex.basis` still lists the
monomials of a block, unmemoized, for callers that need them as objects;
assembly never calls it.

Both operators are graded derivations, fixed by their values on the 2n
generators, and one routine, ``_derive``, applies either.  A derivation D
of parity e maps g_1 ^ ... ^ g_k to the sum over positions of
(-1)^{pos e} g_1..g_{pos-1} ^ D(g_pos) ^ g_{pos+1}..g_k.  Every generator
image has degree e + 1 mod 2 (degree 2 for dbar, |E| for [E, -]), so
moving D(g_pos) to the front costs (-1)^{pos (e+1)} and each term is
(-1)^pos D(g_pos) ^ rest, rest the monomial without g_pos: one
``monomial_wedge`` per (position, image term), with no parity.  The rule
is linear in the images, so it holds for E of mixed parity as well.  The
generator images of dbar and of every ad_g (the rows of the bracket table
above) are built once from the structure constants, as plain term dicts
{generator: {monomial: coefficient}}; every linear combination here is
such a dict, summed with :func:`~nilpoisson.rationals.add_into`.  The
images of [E, -] are [E, g] = -[g, E], where [g, E] is ad_g applied to E,
memoized per E.  Expanding this way is the graded Leibniz rule
[a, b^c] = [a,b]^c + (-1)^{(|a|-1)|b|} b^[a,c] together with graded
antisymmetry [b,a] = -(-1)^{(|a|-1)(|b|-1)}[a,b].

Blocks are assembled factorised.  For D = dbar or D = ad_E, of parity e,

    D(X_P ^ wbar_Q) = D(X_P) ^ wbar_Q + (-1)^{|P| e} X_P ^ D(wbar_Q),

where e is the parity of the degree D adds: odd for dbar and for ad_E
with |E| even.  So a block needs only the C(n,p) images D(X_P) and the
C(n,q) images D(wbar_Q).  These are memoized per (operator, side,
degree), each coefficient stored beside its negation; on a side where D
has no generator image they are all empty and nothing is derived
(dbar(wbar^m) = 0, [Lambda, X_i] = 0 for a bivector Lambda, and
[Omega_bar, wbar^m] = 0 for a (0,2) Omega_bar).  A term of D(X_P) meets
every wbar_Q that misses its forms f, at the row of f + Q, and a term of
D(wbar_Q) meets every X_P that misses its vectors v, at the row of P + v.
Both merges come from a wedge table, memoized per complex and keyed by
(side, part, degree): for every index tuple of that degree on that side
that misses the part, its position, the rank-table position of the
merged tuple and the merge sign.  The block loop is then lookups only,
with no merge: the D(X_P) ^ wbar_Q entries are set, since each head term
meets a Q at its own row, and the X_P ^ D(wbar_Q) entries are added onto
them.  Every entry is nonzero and in range by construction, so blocks
wrap their entry dict without a check.

The positional route and the block loop stay separate on purpose:
``dbar`` and ``schouten`` never call ``_images`` or ``operator_block``, so
comparing every block with the columnwise images of ``dbar`` and
``schouten`` checks one route against an independent one.

The conventions above are pinned by golden tests: on every 2-step
algebra they reproduce [X_j, rho_bar] = -sum_i conj(E_{ji}) wbar^i and, on
the degenerate-pairing family, dbar(T_{2k+2}) = -1/2 wbar^{2k+1} ^ V
coefficient-exactly.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from math import comb
from typing import Dict, Iterable, Iterator, List, NamedTuple, Optional, Tuple, Union

from .algebra import AlgebraSpec, StructureReport, validate
from .rationals import ONE, GaussianRational, InputError, add_into
from .sparse import SparseMatrix, rank


class PoissonError(InputError):
    """A multivector fails the holomorphic Poisson requirements."""


class NotBidegree(PoissonError):
    pass


class NotHolomorphic(PoissonError):
    pass


class Monomial(NamedTuple):
    """Canonical exterior monomial X_{vec} ^ wbar_{form}, both ascending."""

    vec: Tuple[int, ...] = ()
    form: Tuple[int, ...] = ()

    @property
    def bidegree(self) -> Tuple[int, int]:
        return (len(self.vec), len(self.form))

    @property
    def degree(self) -> int:
        return len(self.vec) + len(self.form)


def _merge_ascending(a: Tuple[int, ...], b: Tuple[int, ...]):
    """Merge strictly ascending tuples; (merged, sign) or None on collision."""
    if not a:
        return b, 1
    if not b:
        return a, 1
    out: List[int] = []
    i = j = 0
    sign = 1
    while i < len(a) and j < len(b):
        if a[i] == b[j]:
            return None
        if a[i] < b[j]:
            out.append(a[i])
            i += 1
        else:
            # b[j] jumps over the remaining entries of a
            if (len(a) - i) % 2:
                sign = -sign
            out.append(b[j])
            j += 1
    out.extend(a[i:])
    out.extend(b[j:])
    return tuple(out), sign


def monomial_wedge(x: Monomial, y: Monomial):
    """(sign, monomial) for x ^ y, or None when a generator repeats."""
    sign = -1 if (len(x.form) * len(y.vec)) % 2 else 1
    merged_vec = _merge_ascending(x.vec, y.vec)
    if merged_vec is None:
        return None
    merged_form = _merge_ascending(x.form, y.form)
    if merged_form is None:
        return None
    vec, s1 = merged_vec
    form, s2 = merged_form
    return sign * s1 * s2, Monomial(vec, form)


Coefficient = Union[GaussianRational, int, Fraction]
Terms = Dict[Monomial, GaussianRational]   # a linear combination, no zero coefficient


class GradedElement:
    """A finite linear combination of canonical monomials, no zero terms.

    Immutable by convention: an element is hashed and kept as a memo key,
    and its hash is computed on the first call and kept.
    """

    __slots__ = ("_terms", "_hash")

    def __init__(self, terms: Optional[Dict[Monomial, Coefficient]] = None):
        data: Terms = {}
        if terms:
            for mono, coeff in terms.items():
                if coeff:
                    data[mono] = _as_scalar(coeff)
        self._terms = data
        self._hash = None

    # -- constructors -----------------------------------------------------

    @classmethod
    def vector(cls, index: int, coeff: Coefficient = 1) -> "GradedElement":
        return cls({Monomial((index,), ()): _as_scalar(coeff)})

    @classmethod
    def form(cls, index: int, coeff: Coefficient = 1) -> "GradedElement":
        return cls({Monomial((), (index,)): _as_scalar(coeff)})

    @classmethod
    def monomial(cls, mono: Monomial, coeff: Coefficient = 1) -> "GradedElement":
        return cls({mono: _as_scalar(coeff)})

    # -- inspection ---------------------------------------------------------

    def terms(self) -> Iterator[Tuple[Monomial, GaussianRational]]:
        return iter(self._terms.items())

    def sorted_terms(self) -> List[Tuple[Monomial, GaussianRational]]:
        return sorted(self._terms.items(), key=lambda kv: kv[0])

    def bidegrees(self) -> set:
        return {mono.bidegree for mono in self._terms}

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __len__(self) -> int:
        return len(self._terms)

    # -- algebra -------------------------------------------------------------

    def __add__(self, other: "GradedElement") -> "GradedElement":
        if not isinstance(other, GradedElement):
            return NotImplemented
        data = dict(self._terms)
        for mono, coeff in other._terms.items():
            add_into(data, mono, coeff)
        return _element(data)

    def __sub__(self, other: "GradedElement") -> "GradedElement":
        return self + (-other)

    def __neg__(self) -> "GradedElement":
        return _element({m: -c for m, c in self._terms.items()})

    def __mul__(self, coeff: Coefficient) -> "GradedElement":
        c = _as_scalar(coeff)
        if not c:
            return GradedElement()
        return _element({m: v * c for m, v in self._terms.items()})

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, GradedElement):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        # order-independent over the canonical triples, which hash as plain
        # int tuples (a real GaussianRational hashes through Fraction)
        if self._hash is None:
            self._hash = hash(frozenset((m, c.triple) for m, c in self._terms.items()))
        return self._hash

    def __repr__(self):
        if not self._terms:
            return "GradedElement(0)"
        parts = []
        for mono, coeff in self.sorted_terms():
            gens = [f"X{i}" for i in mono.vec] + [f"w{i}~" for i in mono.form]
            parts.append(f"({coeff})" + ("*" + "^".join(gens) if gens else ""))
        return "GradedElement(" + " + ".join(parts) + ")"


def _element(terms: Terms) -> GradedElement:
    """Wrap a term dict that holds no zero coefficient, without copying it."""
    out = GradedElement.__new__(GradedElement)
    out._terms = terms
    out._hash = None
    return out


def _as_scalar(coeff: Coefficient) -> GaussianRational:
    if isinstance(coeff, GaussianRational):
        return coeff
    return GaussianRational(coeff)


def wedge(a: GradedElement, b: GradedElement) -> GradedElement:
    """Associative graded-commutative product; repeated generators vanish."""
    data: Dict[Monomial, GaussianRational] = {}
    for ma, ca in a.terms():
        for mb, cb in b.terms():
            hit = monomial_wedge(ma, mb)
            if hit is None:
                continue
            sign, mono = hit
            coeff = ca * cb
            add_into(data, mono, coeff if sign > 0 else -coeff)
    return _element(data)


@dataclass(frozen=True)
class OperatorMatrix:
    """A graded operator restricted to one bidegree block."""

    source: Tuple[int, int]
    target: Tuple[int, int]
    matrix: SparseMatrix

    def rank(self) -> int:
        """The exact rank of the block, eliminated on the first call and kept."""
        return self._rank

    @cached_property
    def _rank(self) -> int:
        return rank(self.matrix)


class ExteriorComplex:
    """Operator assembly for one validated algebra.

    Values handed out are immutable; dbar blocks are memoized per (p, q),
    so Dolbeault tables, total cohomology and the obstruction checker
    share the same exact blocks.  ad blocks are rebuilt on request (from
    memoized images); no computation asks for one twice.  A core from
    :meth:`split` is this complex when nothing is free, and otherwise one
    over fewer generators, with its own bases and memos.
    """

    def __init__(self, spec: AlgebraSpec, report: Optional[StructureReport] = None):
        self.spec = spec
        self.report = report if report is not None else validate(spec)
        self.n = spec.n
        # the generator tables, keyed by degree-1 monomials, each image a term
        # dict: dbar(X_j), and the row of nonzero brackets [g, h] of each
        # generator g, read as the images of ad_g
        dbar_images: Dict[Monomial, Terms] = {}
        self._bracket_rows: Dict[Monomial, Dict[Monomial, Terms]] = {}
        for (k, j, m), value in spec.constants.items():
            x_k, w_m, w_j = Monomial((k,), ()), Monomial((), (m,)), Monomial((), (j,))
            # A^m_{kj} wbar^k ^ X_m = -A^m_{kj} X_m ^ wbar^k
            add_into(dbar_images.setdefault(Monomial((j,), ()), {}), Monomial((m,), (k,)), -value)
            # [X_k, wbar^m] gains -conj(A^m_{kj}) wbar^j, and [wbar^m, X_k] its negation
            bracket = value.conjugate()
            add_into(self._bracket_rows.setdefault(x_k, {}).setdefault(w_m, {}), w_j, -bracket)
            add_into(self._bracket_rows.setdefault(w_m, {}).setdefault(x_k, {}), w_j, bracket)
        # element (None for dbar) -> generator images
        self._derivations: dict = {None: dbar_images}
        every = tuple(range(1, spec.n + 1))
        self._bind(every, every)

    def _bind(self, vec_indices: Tuple[int, ...], form_indices: Tuple[int, ...]) -> None:
        """Set the generators the monomials run over, with empty memos for them.

        Each memo keeps one fact once: a dbar block (with its rank), an
        image or wedge table, the banded counts of one T_degree.  A table
        that :mod:`nilpoisson.cohomology` expands from a core's is not kept.
        """
        self.vec_indices, self.form_indices = vec_indices, form_indices
        self.n_vec, self.n_form = len(vec_indices), len(form_indices)
        self.dim_l = self.n_vec + self.n_form
        # degree -> rank table, one dict of tables per side (one for both
        # when the sides run over the same indices)
        self._vec_ranks: Dict[int, Dict[Tuple[int, ...], int]] = {}
        self._form_ranks = self._vec_ranks if form_indices == vec_indices else {}
        self._blocks: Dict[Tuple[int, int], OperatorMatrix] = {}   # (p, q) -> dbar block
        # every memo below is keyed by the multivector itself, None for dbar
        self._images_memo: dict = {}   # (element, side, degree) -> per-monomial image terms
        self._wedges: dict = {}        # (side, part, degree) -> wedge table
        self.pivot_counts: dict = {}   # (Lambda, degree) -> banded pivot counts of T_degree
        self._splits: dict = {}        # summands -> split(*summands)

    # -- canonical bases ---------------------------------------------------

    def _rank_table(self, side: str, degree: int) -> Dict[Tuple[int, ...], int]:
        """{ascending index tuple: its position in ``combinations`` order}, on one side.

        ``side`` "vec" runs over the vector indices and "form" over the form
        indices.  Built on the first use of ``degree`` and kept; empty
        outside 0..(number of indices).  Its keys, in order, are the
        ``combinations`` of that degree.
        """
        tables = self._vec_ranks if side == "vec" else self._form_ranks
        table = tables.get(degree)
        if table is None:
            indices = self.vec_indices if side == "vec" else self.form_indices
            tuples = combinations(indices, degree) if degree >= 0 else ()
            table = tables[degree] = {key: i for i, key in enumerate(tuples)}
        return table

    def basis(self, p: int, q: int) -> Tuple[Monomial, ...]:
        """Canonical monomial basis of B^{p,q}, built on each call.

        Empty unless 0 <= p <= n_vec and 0 <= q <= n_form.
        """
        forms = self._rank_table("form", q)
        return tuple(Monomial(vec, form) for vec in self._rank_table("vec", p) for form in forms)

    def basis_index(self, mono: Tuple[Tuple[int, ...], Tuple[int, ...]]) -> int:
        """Position of X_P ^ wbar_Q in ``basis(|P|, |Q|)``: rank_p[P] * C(n_form,q) + rank_q[Q]."""
        vec, form = mono
        forms = self._rank_table("form", len(form))
        return self._rank_table("vec", len(vec))[vec] * len(forms) + forms[form]

    def block_dim(self, p: int, q: int) -> int:
        if p < 0 or q < 0:
            return 0
        return comb(self.n_vec, p) * comb(self.n_form, q)

    def k_dim(self, degree: int) -> int:
        return sum(self.block_dim(p, degree - p) for p in range(degree + 1))

    def coordinates(self, element: GradedElement, p: int, q: int) -> Dict[int, GaussianRational]:
        out = {}
        for mono, coeff in element.terms():
            if mono.bidegree != (p, q):
                raise ValueError(f"term {mono} is not of bidegree {(p, q)}")
            out[self.basis_index(mono)] = coeff
        return out

    # -- graded derivations ------------------------------------------------------

    def _derivation(self, element: Optional[GradedElement]) -> Dict[Monomial, Terms]:
        """Generator images of dbar (element None) or of [element, -].

        The images of [element, -] are [element, g] = -[g, element], each
        [g, element] the derivation ad_g applied to element.  Memoized per
        element: equal elements hash equal, however they were built.
        """
        images = self._derivations.get(element)
        if images is None:
            images = {}
            for generator, row in self._bracket_rows.items():
                image = self._derive(row, element.terms(), {})
                if image:
                    images[generator] = {m: -c for m, c in image.items()}
            self._derivations[element] = images
        return images

    @staticmethod
    def _derive(images: Dict[Monomial, Terms],
                pairs: Iterable[Tuple[Monomial, GaussianRational]], terms: Terms) -> Terms:
        """Add the derivation with these generator images, applied to pairs, into terms.

        ``pairs`` are (monomial, coefficient) terms.  Each monomial
        g_1 ^ ... ^ g_k maps to the sum over positions pos = 0..k-1 of
        (-1)^pos image(g_pos) ^ rest, rest the monomial without g_pos; this
        needs the images of a derivation of parity e to have degree e + 1
        mod 2 (see the module docstring).  ``images`` is keyed by degree-1
        monomials, which a plain (vec, form) tuple finds.  Returns ``terms``.
        """
        for (vec, form), coeff in pairs:
            n_vec = len(vec)
            for pos in range(n_vec + len(form)):
                r = pos - n_vec   # the form position, negative on a vector
                image = images.get(((vec[pos],), ()) if r < 0 else ((), (form[r],)))
                if image is None:
                    continue
                rest = (Monomial(vec[:pos] + vec[pos + 1:], form) if r < 0
                        else Monomial(vec, form[:r] + form[r + 1:]))
                head = -coeff if pos % 2 else coeff
                for mono, value in image.items():
                    hit = monomial_wedge(mono, rest)
                    if hit is not None:
                        product = head * value
                        add_into(terms, hit[1], product if hit[0] > 0 else -product)
        return terms

    def dbar(self, element: GradedElement) -> GradedElement:
        """Graded Leibniz extension of the generator images; (p,q) -> (p,q+1)."""
        return _element(self._derive(self._derivation(None), element.terms(), {}))

    def schouten(self, a: GradedElement, b: GradedElement) -> GradedElement:
        """Graded bracket; lowers total degree by 1."""
        return _element(self._derive(self._derivation(a), b.terms(), {}))

    # -- Poisson validation --------------------------------------------------------

    def validate_poisson(self, lam: GradedElement) -> None:
        """Check lam is a holomorphic Poisson bivector; raise otherwise.

        [lam, lam] = 0 needs no check: [X_i, X_j] = 0 makes it vanish for
        every (2,0) lam.
        """
        if lam.bidegrees() - {(2, 0)}:
            raise NotBidegree(f"expected a (2,0) bivector, got bidegrees {sorted(lam.bidegrees())}")
        image = self.dbar(lam)
        if image:
            raise NotHolomorphic(f"dbar(Lambda) != 0 (has {len(image)} terms)")

    # -- free generators ---------------------------------------------------------

    def split(self, *summands: GradedElement) -> Tuple["ExteriorComplex", int, int]:
        """(core, free vectors, free forms) of L_{summands}; the core is self when none is free.

        Its differential is dbar + the ad_E of the summands, (Lambda,) or
        (Lambda, Omega_bar).  A generator is free when neither dbar nor an
        ad_E has an image on it and it occurs in no image of a generator;
        read off the memoized generator tables, so the cost is that of the
        structure constants.  The core is a complex over the other
        generators.  It shares this complex's spec, report and generator
        tables and keeps its own bases and memos; no generator of it is
        free.  Memoized per summands.
        """
        if summands not in self._splits:
            vecs, forms = set(), set()
            for table in (self._derivation(None), *map(self._derivation, summands)):
                for generator, image in table.items():
                    for mono in (generator, *image):
                        vecs.update(mono.vec)
                        forms.update(mono.form)
            core_vecs = tuple(i for i in self.vec_indices if i in vecs)
            core_forms = tuple(i for i in self.form_indices if i in forms)
            core = self
            if core_vecs != self.vec_indices or core_forms != self.form_indices:
                core = copy.copy(self)   # shares spec, report and the generator tables
                core._bind(core_vecs, core_forms)
            self._splits[summands] = (core, self.n_vec - core.n_vec, self.n_form - core.n_form)
        return self._splits[summands]

    # -- block assembly ----------------------------------------------------------

    def _images(self, element: Optional[GradedElement], side: str,
                degree: int) -> Tuple[Tuple[tuple, ...], ...]:
        """D(X_P) (side "vec") or D(wbar_Q) (side "form") for every P or Q of one degree.

        D is dbar for element None and [element, -] otherwise.  One entry
        per index tuple, in ``combinations`` order; each entry lists the
        image's terms as (part, rank, coeff, -coeff): ``part`` is the side a
        column merges with its own indices (the forms of D(X_P), the vectors
        of D(wbar_Q)) and ``rank`` the rank-table position of the other side.
        Every entry is empty, and nothing is derived, when D has no image
        on a generator of the side.  Memoized per (element, side, degree).
        """
        memo_key = (element, side, degree)
        cached = self._images_memo.get(memo_key)
        if cached is not None:
            return cached
        images = self._derivation(element)
        ranks = self._rank_table
        if not any(generator.vec if side == "vec" else generator.form for generator in images):
            cached = self._images_memo[memo_key] = ((),) * len(ranks(side, degree))
            return cached
        table = []
        for indices in ranks(side, degree):
            mono = Monomial(indices, ()) if side == "vec" else Monomial((), indices)
            terms = self._derive(images, ((mono, ONE),), {}).items()
            if side == "vec":
                table.append(tuple((f, ranks("vec", len(v))[v], c, -c) for (v, f), c in terms))
            else:
                table.append(tuple((v, ranks("form", len(f))[f], c, -c) for (v, f), c in terms))
        cached = self._images_memo[memo_key] = tuple(table)
        return cached

    def _wedge_table(self, side: str, part: Tuple[int, ...],
                     degree: int) -> Tuple[Tuple[int, int, bool], ...]:
        """(position, merged position, sign > 0) for every index tuple of one degree.

        Lists the tuples of ``degree`` on one side, in ``combinations``
        order, that miss ``part``, merged as part + Q on side "form" (the
        D(X_P) ^ wbar_Q term) and as P + part on side "vec" (the
        X_P ^ D(wbar_Q) term); the merged position is in the rank table of
        degree + |part| on the same side.  Memoized per (side, part, degree).
        """
        key = (side, part, degree)
        table = self._wedges.get(key)
        if table is None:
            merged_ranks = self._rank_table(side, degree + len(part))
            rows = []
            for pos, indices in enumerate(self._rank_table(side, degree)):
                merged = (_merge_ascending(part, indices) if side == "form"
                          else _merge_ascending(indices, part))
                if merged is not None:
                    rows.append((pos, merged_ranks[merged[0]], merged[1] > 0))
            table = self._wedges[key] = tuple(rows)
        return table

    def operator_block(self, kind: str, p: int, q: int,
                       element: Optional[GradedElement] = None) -> OperatorMatrix:
        """The operator matrix B^{p,q} -> target in canonical bases.

        kind "dbar" targets (p, q+1); kind "ad" brackets with a homogeneous
        multivector of bidegree (a, b) and targets (p+a-1, q+b).
        """
        if kind == "dbar":
            element = None
            target = (p, q + 1)
        elif kind == "ad":
            if element is None:
                raise ValueError("kind 'ad' needs a multivector")
            # ad_0 = 0 gets the zero block B^{p,q} -> B^{p,q}, as if of bidegree (1,0)
            degs = element.bidegrees() or {(1, 0)}
            if len(degs) > 1:
                raise ValueError(f"element is not homogeneous: bidegrees {sorted(degs)}")
            (a, b), = degs
            target = (p + a - 1, q + b)
        else:
            raise ValueError(f"unknown operator kind {kind!r}")

        if element is None and (p, q) in self._blocks:
            return self._blocks[(p, q)]

        n_cols = self.block_dim(p, q)
        entries: Dict[Tuple[int, int], GaussianRational] = {}
        if n_cols:
            # columns run in basis(p, q) order, P outer and Q inner, so X_P ^ wbar_Q
            # is column P * n_forms + Q; the row of X_P' ^ wbar_Q' is
            # P' * stride + Q', positions in the target's rank tables
            n_forms = comb(self.n_form, q)
            stride = comb(self.n_form, target[1])
            wedges = self._wedge_table
            # one int object per column, shared by the keys of its entries: a kept
            # dbar block would otherwise hold one column int per entry
            columns = tuple(range(n_cols))
            # D(X_P) ^ wbar_Q: each head term meets Q at one row, so entries are set
            for col0, vec_terms in zip(range(0, n_cols, n_forms), self._images(element, "vec", p)):
                if not vec_terms:
                    continue
                cols = columns[col0:col0 + n_forms]
                for f, rank, c, neg in vec_terms:
                    base = rank * stride
                    for qi, t, positive in wedges("form", f, q):
                        entries[(base + t, cols[qi])] = c if positive else neg
            # (-1)^{|P|} X_P ^ D(wbar_Q) when D is odd, added onto the rows both parts share;
            # D is odd when it adds an odd degree: dbar, and ad_E with |E| even
            hop = bool(p % 2 and (sum(target) - p - q) % 2)
            for qi, form_terms in enumerate(self._images(element, "form", q)):
                if not form_terms:
                    continue
                cols = columns[qi::n_forms]
                for v, rank, c, neg in form_terms:
                    plus, minus = (neg, c) if hop else (c, neg)
                    for pi, t, positive in wedges("vec", v, p):
                        add_into(entries, (t * stride + rank, cols[pi]),
                                 plus if positive else minus)
        # entries are nonzero (set once per row, or through add_into) and in range
        block = OperatorMatrix(
            source=(p, q), target=target,
            matrix=SparseMatrix._trusted(self.block_dim(*target), n_cols, entries))
        if element is None:   # ad blocks are never read twice, so only dbar blocks are kept
            self._blocks[(p, q)] = block
        return block
