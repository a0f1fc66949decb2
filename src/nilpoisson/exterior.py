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
  bidegree block in the canonical monomial bases, memoized per
  (kind, block, multivector).

Positions are arithmetic; no basis is materialised to find one.  The
canonical basis of B^{p,q} runs over P in ``combinations(range(1, n+1), p)``
outer and Q in ``combinations(range(1, n+1), q)`` inner, so X_P ^ wbar_Q
sits at rank_p[P] * C(n, q) + rank_q[Q], where rank_k is the position of
an ascending k-tuple in ``combinations`` order (its index in the
combinatorial number system; Knuth, TAOCP Vol. 4A, 7.2.1.3).  Each rank_k
is a dict of C(n, k) entries, built on first use of degree k and kept;
block dimensions are the binomial products C(n,p) C(n,q), so sizing a
degree never builds a table.  :meth:`ExteriorComplex.basis` still lists the
monomials of a block, lazily, for callers that need them as objects;
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
C(n,q) images D(wbar_Q) (all zero for dbar).  These are memoized per
(operator, side, degree), each coefficient stored beside its negation.
A column is then a merge of each D(X_P) term's forms with Q and of P with
each D(wbar_Q) term's vectors, and the row is the position rule above;
entries are added only where the two parts share a row.  Every entry is
nonzero and in range by construction, so blocks wrap their entry dict
without a check.

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

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from math import comb
from typing import Dict, Iterable, Iterator, List, NamedTuple, Optional, Tuple, Union

from .algebra import AlgebraSpec, StructureReport, validate
from .rationals import ONE, GaussianRational, add_into
from .sparse import SparseMatrix


class PoissonError(ValueError):
    """A multivector fails the holomorphic Poisson requirements."""


class NotBidegree(PoissonError):
    pass


class NotHolomorphic(PoissonError):
    pass


class NotPoisson(PoissonError):
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
    """A finite linear combination of canonical monomials, no zero terms."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Optional[Terms] = None):
        data: Terms = {}
        if terms:
            for mono, coeff in terms.items():
                if coeff:
                    data[mono] = coeff
        self._terms = data

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

    def bidegree(self) -> Optional[Tuple[int, int]]:
        """The unique bidegree, None for zero; raises if mixed."""
        degs = self.bidegrees()
        if not degs:
            return None
        if len(degs) > 1:
            raise ValueError(f"element is not homogeneous: bidegrees {sorted(degs)}")
        return next(iter(degs))

    def is_homogeneous(self, p: Optional[int] = None, q: Optional[int] = None) -> bool:
        degs = self.bidegrees()
        if len(degs) > 1:
            return False
        if not degs:
            return True
        (dp, dq), = degs
        return (p is None or dp == p) and (q is None or dq == q)

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
        return hash(frozenset(self._terms.items()))

    def cache_key(self):
        return tuple(sorted(((m, c.sort_key()) for m, c in self._terms.items())))

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

    _rank_cache: dict = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "_rank_cache", {})

    def rank(self) -> int:
        if "rank" not in self._rank_cache:
            from .sparse import rank as _rank
            self._rank_cache["rank"] = _rank(self.matrix)
        return self._rank_cache["rank"]


class ExteriorComplex:
    """Operator assembly for one validated algebra.

    Values handed out are immutable; block matrices are memoized per
    (kind, p, q, multivector), so Dolbeault tables, total cohomology and
    the obstruction checker share the same exact blocks.
    """

    def __init__(self, spec: AlgebraSpec, report: Optional[StructureReport] = None):
        self.spec = spec
        self.report = report if report is not None else validate(spec)
        self.n = spec.n
        self.dim_l = 2 * spec.n
        self._bases: Dict[Tuple[int, int], Tuple[Monomial, ...]] = {}
        self._ranks: Dict[int, Dict[Tuple[int, ...], int]] = {}   # degree -> rank table
        self._blocks: Dict[tuple, OperatorMatrix] = {}   # (kind, p, q[, key])
        self._images_memo: dict = {}   # (key, side, degree) -> per-monomial image terms
        self.pivot_counts: dict = {}   # (Lambda key, degree) -> banded pivot counts of T_degree
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
        # element cache_key (None for dbar) -> generator images
        self._derivations: dict = {None: dbar_images}

    # -- canonical bases ---------------------------------------------------

    def _rank_table(self, degree: int) -> Dict[Tuple[int, ...], int]:
        """{ascending index tuple: its position in ``combinations`` order}.

        Built on the first use of ``degree`` and kept; empty outside 0..n.
        Its keys, in order, are the ``combinations`` of that degree.
        """
        table = self._ranks.get(degree)
        if table is None:
            tuples = combinations(range(1, self.n + 1), degree) if degree >= 0 else ()
            table = self._ranks[degree] = {indices: i for i, indices in enumerate(tuples)}
        return table

    def basis(self, p: int, q: int) -> Tuple[Monomial, ...]:
        """Canonical monomial basis of B^{p,q} (empty outside 0..n), built on first use."""
        key = (p, q)
        if key not in self._bases:
            forms = self._rank_table(q)
            self._bases[key] = tuple(Monomial(vec, form)
                                     for vec in self._rank_table(p) for form in forms)
        return self._bases[key]

    def basis_index(self, mono: Tuple[Tuple[int, ...], Tuple[int, ...]]) -> int:
        """Position of X_P ^ wbar_Q in ``basis(|P|, |Q|)``: rank_p[P] * C(n,q) + rank_q[Q]."""
        vec, form = mono
        forms = self._rank_table(len(form))
        return self._rank_table(len(vec))[vec] * len(forms) + forms[form]

    def block_dim(self, p: int, q: int) -> int:
        return comb(self.n, p) * comb(self.n, q) if p >= 0 and q >= 0 else 0

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

    def _derivation(self, element: Optional[GradedElement], key) -> Dict[Monomial, Terms]:
        """Generator images of dbar (element None) or of [element, -].

        The images of [element, -] are [element, g] = -[g, element], each
        [g, element] the derivation ad_g applied to element.  Memoized per
        ``key``, the element's ``cache_key()`` (None for dbar).
        """
        images = self._derivations.get(key)
        if images is None:
            images = {}
            for generator, row in self._bracket_rows.items():
                image = self._derive(row, element.terms(), {})
                if image:
                    images[generator] = {m: -c for m, c in image.items()}
            self._derivations[key] = images
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
        return _element(self._derive(self._derivation(None, None), element.terms(), {}))

    def schouten(self, a: GradedElement, b: GradedElement) -> GradedElement:
        """Graded bracket; lowers total degree by 1."""
        return _element(self._derive(self._derivation(a, a.cache_key()), b.terms(), {}))

    # -- Poisson validation --------------------------------------------------------

    def validate_poisson(self, lam: GradedElement) -> None:
        """Check lam is a holomorphic Poisson bivector; raise otherwise."""
        if lam and not lam.is_homogeneous(2, 0):
            raise NotBidegree(f"expected a (2,0) bivector, got bidegrees {sorted(lam.bidegrees())}")
        image = self.dbar(lam)
        if image:
            raise NotHolomorphic(f"dbar(Lambda) != 0 (has {len(image)} terms)")
        bracket = self.schouten(lam, lam)
        if bracket:
            raise NotPoisson("[Lambda, Lambda] != 0")

    # -- block assembly ----------------------------------------------------------

    def _images(self, element: Optional[GradedElement], key, side: str,
                degree: int) -> Tuple[Tuple[tuple, ...], ...]:
        """D(X_P) (side "vec") or D(wbar_Q) (side "form") for every P or Q of one degree.

        D is dbar for element None and [element, -] otherwise.  One entry
        per index tuple, in ``combinations`` order; each entry lists the
        image's terms as (part, rank, coeff, -coeff): ``part`` is the side a
        column merges with its own indices (the forms of D(X_P), the vectors
        of D(wbar_Q)) and ``rank`` the rank-table position of the other side.
        Memoized per (key, side, degree), ``key`` as in :meth:`_derivation`.
        """
        memo_key = (key, side, degree)
        cached = self._images_memo.get(memo_key)
        if cached is not None:
            return cached
        images = self._derivation(element, key)
        ranks = self._rank_table
        table = []
        for indices in ranks(degree):
            mono = Monomial(indices, ()) if side == "vec" else Monomial((), indices)
            terms = self._derive(images, ((mono, ONE),), {}).items()
            if side == "vec":
                table.append(tuple((f, ranks(len(v))[v], c, -c) for (v, f), c in terms))
            else:
                table.append(tuple((v, ranks(len(f))[f], c, -c) for (v, f), c in terms))
        cached = self._images_memo[memo_key] = tuple(table)
        return cached

    def operator_block(self, kind: str, p: int, q: int,
                       element: Optional[GradedElement] = None) -> OperatorMatrix:
        """The operator matrix B^{p,q} -> target in canonical bases.

        kind "dbar" targets (p, q+1); kind "ad" brackets with a homogeneous
        multivector of bidegree (a, b) and targets (p+a-1, q+b).
        """
        if kind == "dbar":
            element = element_key = None
            target = (p, q + 1)
            key = ("dbar", p, q)
        elif kind == "ad":
            if element is None:
                raise ValueError("kind 'ad' needs a multivector")
            deg = element.bidegree()
            if deg is None:
                target = (p, q)  # ad_0 = 0; degenerate zero block
            else:
                target = (p + deg[0] - 1, q + deg[1])
            element_key = element.cache_key()
            key = ("ad", p, q, element_key)
        else:
            raise ValueError(f"unknown operator kind {kind!r}")

        if key in self._blocks:
            return self._blocks[key]

        n_cols = self.block_dim(p, q)
        entries: Dict[Tuple[int, int], GaussianRational] = {}
        if n_cols:
            vec_rank, form_rank = self._rank_table(target[0]), self._rank_table(target[1])
            stride = len(form_rank)
            forms = self._rank_table(q)
            vec_images = self._images(element, element_key, "vec", p)
            form_images = self._images(element, element_key, "form", q)
            # D is odd when it adds an odd degree: dbar, and ad_E with |E| even
            hop = bool(p % 2 and (sum(target) - p - q) % 2)
            # columns run in basis(p, q) order: P outer, Q inner; the row of
            # X_P' ^ wbar_Q' is vec_rank[P'] * stride + form_rank[Q']
            col = 0
            for vec, vec_terms in zip(self._rank_table(p), vec_images):
                heads = [(rank * stride, f, c, neg) for f, rank, c, neg in vec_terms]
                for form, form_terms in zip(forms, form_images):
                    # D(X_P) ^ wbar_Q
                    for base, f, c, neg in heads:
                        merged = _merge_ascending(f, form)
                        if merged is not None:
                            entries[(base + form_rank[merged[0]], col)] = (
                                c if merged[1] > 0 else neg)
                    # (-1)^{|P|} X_P ^ D(wbar_Q) when D is odd
                    for v, rank, c, neg in form_terms:
                        merged = _merge_ascending(vec, v)
                        if merged is None:
                            continue
                        add_into(entries, (vec_rank[merged[0]] * stride + rank, col),
                                 c if (merged[1] > 0) != hop else neg)
                    col += 1
        # entries are nonzero (set once per row, or through add_into) and in range
        block = OperatorMatrix(
            source=(p, q), target=target,
            matrix=SparseMatrix._trusted(self.block_dim(*target), n_cols, entries))
        self._blocks[key] = block
        return block
