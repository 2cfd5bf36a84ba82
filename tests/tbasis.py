"""The T-basis oracle: Hecke-algebra arithmetic in the standard basis.

An element is a plain sparse map {w: coefficient of T_w} that stores no
zeros.  Products go generator by generator through
T_s^2 = 1 + (v_s - v_s^-1) T_s; the bar involution and a fixed-point solver
for C_w are built on them.  The solver shares nothing with the P*-recursion
behind `KLContext.c_basis`.  Products of C-basis elements taken here, through
that expansion, and converted back to the C-basis by unitriangular
elimination share nothing with the KL W-graph that `KLContext.h_structure`
reads.
"""

from coxkl.kl import KLContext
from coxkl.laurent import LaurentPoly, ONE, add_term, bar, positive_part


def add_scaled(out: dict, h: dict, f) -> None:
    """out += f h in a sparse map that stores no zeros."""
    for w, c in h.items():
        add_term(out, w, c * f)


def _top(h: dict):
    """The key of h largest in (length, index)."""
    return max(h, key=lambda e: (e.length(), e.index))


class TBasis:
    """T-basis products, the bar involution and the T <-> C conversions of
    one KL context."""

    def __init__(self, kl: KLContext):
        self.kl = kl
        self.engine = kl.engine
        self._tinv: dict = {}

    def _zeta(self, s: int) -> LaurentPoly:
        ls = self.engine.generator_weight(s)
        return LaurentPoly({ls: 1, -ls: -1})

    def _mult_gen(self, table: list[list[int]], s: int, h: dict) -> dict:
        """T_s h (table engine.lmul) or h T_s (table engine.rmul)."""
        elements = self.engine.elements
        row = table[s]
        zeta = self._zeta(s)
        out: dict = {}
        for w, c in h.items():
            sw = elements[row[w.index]]
            add_term(out, sw, c)
            if sw.length() < w.length():
                add_term(out, w, c * zeta)
        return out

    def t_multiply(self, h1: dict, h2: dict) -> dict:
        """Product of two T-basis elements."""
        eng = self.engine
        out: dict = {}
        for w, c in h1.items():
            acc = h2
            for s in reversed(eng.reduced_word(w)):
                acc = self._mult_gen(eng.lmul, s, acc)
            add_scaled(out, acc, c)
        return out

    def t_inverse(self, w) -> dict:
        """(T_w)^-1 expanded in the T-basis, memoized."""
        res = self._tinv.get(w)
        if res is None:
            eng = self.engine
            if w == eng.identity:
                res = {w: ONE}
            else:
                s = min(eng.left_descent_set(w))
                # T_w = T_s T_sw, so T_w^-1 = T_sw^-1 (T_s - zeta_s)
                rest = self.t_inverse(eng.simple[s] * w)
                res = self._mult_gen(eng.rmul, s, rest)
                add_scaled(res, rest, -self._zeta(s))
            self._tinv[w] = res
        return res

    def hecke_bar(self, h: dict) -> dict:
        """The semilinear involution: bar on coefficients, T_w to (T_{w^-1})^-1."""
        out: dict = {}
        for w, c in h.items():
            add_scaled(out, self.t_inverse(w.inverse()), bar(c))
        return out

    def c_basis_by_bar_fixed_point(self, w) -> dict:
        """C_w as the unique bar-invariant element of T_w + sum F[v>0] T_y.

        Starts from T_w and corrects the discrepancy bar(x) - x at its
        largest (length, index) each step.
        """
        x = {w: ONE}
        delta = self.hecke_bar(x)
        add_term(delta, w, -ONE)
        guard = 0
        while delta:
            guard += 1
            if guard > 4 * self.engine.order:
                raise ArithmeticError("bar fixed point iteration did not converge")
            target = _top(delta)
            d = delta[target]
            # d is bar-antisymmetric; the correction c in F[v>0] solves
            # c - bar(c) = d
            c = positive_part(d)
            if c - bar(c) != d:
                raise ArithmeticError("discrepancy is not bar-antisymmetric")
            add_term(x, target, c)
            add_scaled(delta, self.t_inverse(target.inverse()), bar(c))
            add_term(delta, target, -c)
        return x

    def t_to_c(self, h: dict) -> dict:
        """Convert a T-basis element to the C-basis by unitriangular elimination."""
        rest = dict(h)
        out = {}
        while rest:
            w = _top(rest)
            c = out[w] = rest[w]
            add_scaled(rest, self.kl.c_basis(w), -c)
        return out

    def c_to_t(self, h: dict) -> dict:
        """Convert a C-basis element to the T-basis."""
        out: dict = {}
        for w, c in h.items():
            add_scaled(out, self.kl.c_basis(w), c)
        return out

    def h_structure(self, x, y) -> dict:
        """h_{x,y,z} of C_x C_y = sum_z h_{x,y,z} C_z, through T-basis products."""
        return self.t_to_c(self.t_multiply(self.kl.c_basis(x), self.kl.c_basis(y)))
