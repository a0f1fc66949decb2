"""The exterior algebra of L = g^{1,0} + g^{*(0,1)} and its operators.

Basis monomials are X_P ^ wbar_Q with both index blocks strictly ascending;
every generator (vector or form) has exterior degree 1, so generators
anticommute and the bidegree of a monomial is (|P|, |Q|).

:class:`ExteriorComplex` binds a validated algebra and provides the three
graded operators as exact sparse matrices per bidegree block:

* ``dbar`` -- on generators, dbar(wbar^m) = 0 and
  dbar(X_j) = sum_{k,m} A^m_{kj} wbar^k ^ X_m, extended by the graded
  Leibniz rule dbar(a^b) = dbar(a)^b + (-1)^|a| a^dbar(b);
* ``schouten`` -- the graded bracket with generator rules
  [X_i, X_j] = 0, [wbar^i, wbar^j] = 0 and
  [X_i, wbar^m] = -sum_b conj(A^m_{ib}) wbar^b, extended by graded
  antisymmetry [b,a] = -(-1)^{(|a|-1)(|b|-1)}[a,b] and the graded Leibniz
  rule [a, b^c] = [a,b]^c + (-1)^{(|a|-1)|b|} b^[a,c];
* ``operator_block`` -- the matrix of dbar or ad_Lambda restricted to a
  bidegree block in the canonical monomial bases, memoized per
  (kind, block, multivector).

Blocks are assembled factorised.  Both operators are graded derivations
and dbar(wbar) = 0, so for D = dbar or D = ad_E with E homogeneous,

    D(X_P ^ wbar_Q) = D(X_P) ^ wbar_Q + (-1)^{(|E|-1)|P|} X_P ^ D(wbar_Q),

where the second term vanishes for dbar.  A block therefore needs only the
C(n,p) images D(X_P) and the C(n,q) images D(wbar_Q).  These are computed
once through ``dbar`` and the derivation expansion ``_ad_image`` and
memoized per (operator, element, side, degree), each coefficient stored
beside its negation.  A column is then a merge of each D(X_P) term's forms
with Q and of P with each D(wbar_Q) term's vectors, followed by a row
lookup; entries are added only where the two parts share a row.

The two conventions above are pinned by golden tests: on every 2-step
algebra they reproduce [X_j, rho_bar] = -sum_i conj(E_{ji}) wbar^i and, on
the degenerate-pairing family, dbar(T_{2k+2}) = -1/2 wbar^{2k+1} ^ V
coefficient-exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from typing import Dict, Iterator, List, NamedTuple, Optional, Tuple, Union

from .algebra import AlgebraSpec, StructureReport, validate
from .rationals import ZERO, GaussianRational
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


SCALAR_MONOMIAL = Monomial()


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


class GradedElement:
    """A finite linear combination of canonical monomials, no zero terms."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Optional[Dict[Monomial, GaussianRational]] = None):
        data: Dict[Monomial, GaussianRational] = {}
        if terms:
            for mono, coeff in terms.items():
                if coeff:
                    data[mono] = coeff
        self._terms = data

    # -- constructors -----------------------------------------------------

    @classmethod
    def zero(cls) -> "GradedElement":
        return cls()

    @classmethod
    def vector(cls, index: int, coeff: Coefficient = 1) -> "GradedElement":
        return cls({Monomial((index,), ()): _as_scalar(coeff)})

    @classmethod
    def form(cls, index: int, coeff: Coefficient = 1) -> "GradedElement":
        return cls({Monomial((), (index,)): _as_scalar(coeff)})

    @classmethod
    def scalar(cls, coeff: Coefficient) -> "GradedElement":
        return cls({SCALAR_MONOMIAL: _as_scalar(coeff)})

    @classmethod
    def monomial(cls, mono: Monomial, coeff: Coefficient = 1) -> "GradedElement":
        return cls({mono: _as_scalar(coeff)})

    # -- inspection ---------------------------------------------------------

    def terms(self) -> Iterator[Tuple[Monomial, GaussianRational]]:
        return iter(self._terms.items())

    def sorted_terms(self) -> List[Tuple[Monomial, GaussianRational]]:
        return sorted(self._terms.items(), key=lambda kv: kv[0])

    def coefficient(self, mono: Monomial) -> GaussianRational:
        return self._terms.get(mono, ZERO)

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
            acc = data.get(mono, ZERO) + coeff
            if acc:
                data[mono] = acc
            elif mono in data:
                del data[mono]
        out = GradedElement.__new__(GradedElement)
        out._terms = data
        return out

    def __sub__(self, other: "GradedElement") -> "GradedElement":
        return self + (-other)

    def __neg__(self) -> "GradedElement":
        out = GradedElement.__new__(GradedElement)
        out._terms = {m: -c for m, c in self._terms.items()}
        return out

    def __mul__(self, coeff: Coefficient) -> "GradedElement":
        c = _as_scalar(coeff)
        if not c:
            return GradedElement()
        out = GradedElement.__new__(GradedElement)
        out._terms = {m: v * c for m, v in self._terms.items()}
        return out

    __rmul__ = __mul__

    def wedge(self, other: "GradedElement") -> "GradedElement":
        return wedge(self, other)

    def __xor__(self, other: "GradedElement") -> "GradedElement":
        # mind the precedence: parenthesize (a ^ b) in compound expressions
        return wedge(self, other)

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
            if sign < 0:
                coeff = -coeff
            acc = data.get(mono, ZERO) + coeff
            if acc:
                data[mono] = acc
            elif mono in data:
                del data[mono]
    out = GradedElement.__new__(GradedElement)
    out._terms = data
    return out


def _split_first(mono: Monomial) -> Tuple[Monomial, Monomial]:
    """First generator and the remainder, both canonical (sign +1)."""
    if mono.vec:
        return Monomial((mono.vec[0],), ()), Monomial(mono.vec[1:], mono.form)
    return Monomial((), (mono.form[0],)), Monomial((), mono.form[1:])


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
        self._dbar_vec: Dict[int, GradedElement] = {}
        self._vec_form: Dict[Tuple[int, int], GradedElement] = {}
        self._bases: Dict[Tuple[int, int], Tuple[Monomial, ...]] = {}
        self._basis_index: Dict[Tuple[int, int], Dict[Monomial, int]] = {}
        self._blocks: dict = {}   # (kind, p, q[, key]) -> OperatorMatrix; genbr keys -> images
        self._images_memo: dict = {}   # (kind, key, side, degree) -> per-monomial image terms

    # -- canonical bases ---------------------------------------------------

    def basis(self, p: int, q: int) -> Tuple[Monomial, ...]:
        """Canonical monomial basis of B^{p,q} (empty outside 0..n)."""
        key = (p, q)
        if key not in self._bases:
            if 0 <= p <= self.n and 0 <= q <= self.n:
                indices = range(1, self.n + 1)
                monos = tuple(
                    Monomial(vec, form)
                    for vec in combinations(indices, p)
                    for form in combinations(indices, q)
                )
            else:
                monos = ()
            self._bases[key] = monos
            self._basis_index[key] = {m: i for i, m in enumerate(monos)}
        return self._bases[key]

    def basis_index(self, p: int, q: int) -> Dict[Monomial, int]:
        self.basis(p, q)
        return self._basis_index[(p, q)]

    def block_dim(self, p: int, q: int) -> int:
        return len(self.basis(p, q))

    def k_dim(self, degree: int) -> int:
        return sum(self.block_dim(p, degree - p) for p in range(degree + 1))

    def coordinates(self, element: GradedElement, p: int, q: int) -> Dict[int, GaussianRational]:
        index = self.basis_index(p, q)
        out = {}
        for mono, coeff in element.terms():
            if mono.bidegree != (p, q):
                raise ValueError(f"term {mono} is not of bidegree {(p, q)}")
            out[index[mono]] = coeff
        return out

    def from_coordinates(self, coords, p: int, q: int) -> GradedElement:
        base = self.basis(p, q)
        if isinstance(coords, dict):
            items = coords.items()
        else:
            items = enumerate(coords)
        return GradedElement({base[i]: _as_scalar(c) for i, c in items if c})

    # -- generator images ----------------------------------------------------

    def dbar_vector(self, j: int) -> GradedElement:
        """dbar(X_j) = sum_{k,m} A^m_{kj} wbar^k ^ X_m (canonicalized)."""
        if j not in self._dbar_vec:
            terms: Dict[Monomial, GaussianRational] = {}
            for (k, jj, m), value in self.spec.constants.items():
                if jj != j:
                    continue
                # wbar^k ^ X_m = -(X_m ^ wbar^k)
                mono = Monomial((m,), (k,))
                acc = terms.get(mono, ZERO) - value
                if acc:
                    terms[mono] = acc
                elif mono in terms:
                    del terms[mono]
            self._dbar_vec[j] = GradedElement(terms)
        return self._dbar_vec[j]

    def bracket_vector_form(self, i: int, m: int) -> GradedElement:
        """[X_i, wbar^m] = -sum_b conj(A^m_{ib}) wbar^b."""
        key = (i, m)
        if key not in self._vec_form:
            terms: Dict[Monomial, GaussianRational] = {}
            for (k, b, mm), value in self.spec.constants.items():
                if k != i or mm != m:
                    continue
                mono = Monomial((), (b,))
                acc = terms.get(mono, ZERO) - value.conjugate()
                if acc:
                    terms[mono] = acc
                elif mono in terms:
                    del terms[mono]
            self._vec_form[key] = GradedElement(terms)
        return self._vec_form[key]

    # -- the differential ------------------------------------------------------

    def dbar(self, element: GradedElement) -> GradedElement:
        """Graded Leibniz extension of the generator images; (p,q) -> (p,q+1)."""
        total = GradedElement()
        for mono, coeff in element.terms():
            for pos, j in enumerate(mono.vec):
                image = self.dbar_vector(j)
                if not image:
                    continue
                prefix = GradedElement.monomial(Monomial(mono.vec[:pos], ()),
                                                coeff if pos % 2 == 0 else -coeff)
                suffix = GradedElement.monomial(Monomial(mono.vec[pos + 1:], mono.form))
                total = total + wedge(wedge(prefix, image), suffix)
            # form generators are dbar-closed: no contribution
        return total

    # -- the Schouten bracket ----------------------------------------------------

    def schouten(self, a: GradedElement, b: GradedElement) -> GradedElement:
        """Graded bracket; lowers total degree by 1."""
        total = GradedElement()
        for ma, ca in a.terms():
            for mb, cb in b.terms():
                piece = self._schouten_mono(ma, mb)
                if piece:
                    total = total + piece * (ca * cb)
        return total

    def _schouten_mono(self, ma: Monomial, mb: Monomial) -> GradedElement:
        da, db = ma.degree, mb.degree
        if da == 0 or db == 0:
            return GradedElement()
        if da == 1 and db == 1:
            a_vec, b_vec = bool(ma.vec), bool(mb.vec)
            if a_vec and b_vec:
                return GradedElement()    # abelian: vector fields commute
            if not a_vec and not b_vec:
                return GradedElement()    # forms bracket to zero
            if a_vec:
                return self.bracket_vector_form(ma.vec[0], mb.form[0])
            # [form, vector] = -[vector, form] (degree-1 antisymmetry)
            return -self.bracket_vector_form(mb.vec[0], ma.form[0])
        if db >= 2:
            # [a, h^rest] = [a,h]^rest + (-1)^{(|a|-1)|h|} h^[a,rest], |h| = 1
            head, rest = _split_first(mb)
            first = wedge(self._schouten_mono(ma, head), GradedElement.monomial(rest))
            second = wedge(GradedElement.monomial(head), self._schouten_mono(ma, rest))
            if (da - 1) % 2:
                second = -second
            return first + second
        # da >= 2, db == 1: [a,b] = -(-1)^{(|a|-1)(|b|-1)} [b,a] with |b|-1 = 0
        return -self._schouten_mono(mb, ma)

    # The Leibniz rule makes [element, -] a graded derivation; expanding it
    # over the generator positions of a monomial gives the same bracket as
    # the recursion above in one pass.  Block assembly uses this path with
    # the 2n generator brackets precomputed; tests pin the two routes to
    # each other.

    def _generator_brackets(self, element: GradedElement) -> Dict[Tuple[str, int], GradedElement]:
        key = ("genbr", element.cache_key())
        cached = self._blocks.get(key)
        if cached is None:
            images: Dict[Tuple[str, int], GradedElement] = {}
            for i in range(1, self.n + 1):
                image = self.schouten(element, GradedElement.vector(i))
                if image:
                    images[("v", i)] = image
                image = self.schouten(element, GradedElement.form(i))
                if image:
                    images[("f", i)] = image
            self._blocks[key] = images
            return images
        return cached

    @staticmethod
    def _split_at(mono: Monomial, position: int):
        """(prefix, generator key, suffix) at a 0-based generator position."""
        n_vec = len(mono.vec)
        if position < n_vec:
            return (Monomial(mono.vec[:position], ()),
                    ("v", mono.vec[position]),
                    Monomial(mono.vec[position + 1:], mono.form))
        r = position - n_vec
        return (Monomial(mono.vec, mono.form[:r]),
                ("f", mono.form[r]),
                Monomial((), mono.form[r + 1:]))

    def _ad_image(self, images: Dict[Tuple[str, int], GradedElement], flip: bool,
                  mono: Monomial) -> GradedElement:
        """[element, mono] via the derivation expansion.

        ``flip`` is ((degree of element) - 1) mod 2: the sign each generator
        hop contributes.
        """
        total = GradedElement()
        for position in range(mono.degree):
            prefix, generator, suffix = self._split_at(mono, position)
            image = images.get(generator)
            if image is None:
                continue
            coeff = GaussianRational(-1 if (flip and position % 2) else 1)
            piece = wedge(wedge(GradedElement.monomial(prefix, coeff), image),
                          GradedElement.monomial(suffix))
            total = total + piece
        return total

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

    def _images(self, kind: str, element: Optional[GradedElement], side: str,
                degree: int) -> Tuple[Tuple[tuple, ...], ...]:
        """D(X_P) (side "vec") or D(wbar_Q) (side "form") for every P or Q of one degree.

        One entry per index tuple, in ``combinations`` order; each entry
        lists the image's terms as (vec, form, coeff, -coeff).  Memoized
        per (kind, element, side, degree).
        """
        key = (kind, None if element is None else element.cache_key(), side, degree)
        cached = self._images_memo.get(key)
        if cached is not None:
            return cached
        if kind == "ad":
            images = self._generator_brackets(element)
            flip = bool((sum(element.bidegree() or (0, 0)) - 1) % 2)
        table = []
        for indices in combinations(range(1, self.n + 1), degree):
            mono = Monomial(indices, ()) if side == "vec" else Monomial((), indices)
            if kind == "dbar":
                image = self.dbar(GradedElement.monomial(mono))
            else:
                image = self._ad_image(images, flip, mono)
            table.append(tuple((m.vec, m.form, c, -c) for m, c in image.terms()))
        cached = self._images_memo[key] = tuple(table)
        return cached

    def operator_block(self, kind: str, p: int, q: int,
                       element: Optional[GradedElement] = None) -> OperatorMatrix:
        """The operator matrix B^{p,q} -> target in canonical bases.

        kind "dbar" targets (p, q+1); kind "ad" brackets with a homogeneous
        multivector of bidegree (a, b) and targets (p+a-1, q+b).
        """
        if kind == "dbar":
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
            key = ("ad", p, q, element.cache_key())
        else:
            raise ValueError(f"unknown operator kind {kind!r}")

        if key in self._blocks:
            return self._blocks[key]

        n_cols = self.block_dim(p, q)
        target_index = self.basis_index(*target)
        entries: Dict[Tuple[int, int], GaussianRational] = {}
        if n_cols:
            forms = tuple(combinations(range(1, self.n + 1), q))
            vec_images = self._images(kind, element, "vec", p)
            if kind == "dbar":
                form_images = ((),) * len(forms)        # dbar(wbar_Q) = 0
                hop = False
            else:
                form_images = self._images(kind, element, "form", q)
                hop = bool((sum(deg or (0, 0)) - 1) * p % 2)
            # columns run in basis(p, q) order: P outer, Q inner.  target_index
            # is keyed by Monomial, a tuple subclass, so a plain (vec, form)
            # tuple finds the same row
            col = 0
            for vec, vec_terms in zip(combinations(range(1, self.n + 1), p), vec_images):
                for form, form_terms in zip(forms, form_images):
                    # D(X_P) ^ wbar_Q
                    for v, f, c, neg in vec_terms:
                        merged = _merge_ascending(f, form)
                        if merged is not None:
                            entries[(target_index[(v, merged[0])], col)] = (
                                c if merged[1] > 0 else neg)
                    # (-1)^{(|E|-1)|P|} X_P ^ D(wbar_Q)
                    for v, f, c, neg in form_terms:
                        merged = _merge_ascending(vec, v)
                        if merged is None:
                            continue
                        cell = (target_index[(merged[0], f)], col)
                        value = c if (merged[1] > 0) != hop else neg
                        prior = entries.get(cell)
                        if prior is None:
                            entries[cell] = value
                        else:
                            value = prior + value
                            if value:
                                entries[cell] = value
                            else:
                                del entries[cell]
                    col += 1
        block = OperatorMatrix(
            source=(p, q), target=target,
            matrix=SparseMatrix(len(target_index), n_cols, entries))
        self._blocks[key] = block
        return block
