"""The T-basis oracle for the structure constants h_{x,y,z}.

Products of C-basis elements are taken in the standard basis, through the
P*-recursion expansion `KLContext.c_basis`, and converted back to the
C-basis by unitriangular elimination.  This route shares nothing with the
KL W-graph that `KLContext.h_structure` reads.
"""

from coxkl.kl import HeckeElement, KLContext


class TBasis:
    """T-basis products and the T <-> C conversions of one KL context."""

    def __init__(self, kl: KLContext):
        self.kl = kl

    def t_multiply(self, h1: HeckeElement, h2: HeckeElement) -> HeckeElement:
        """Product of two T-basis elements."""
        if h1.basis != "T" or h2.basis != "T":
            raise ValueError("t_multiply expects T-basis elements")
        eng = self.kl.engine
        out = HeckeElement("T", {})
        for w, c in h1.coeffs.items():
            acc = h2
            for s in reversed(eng.reduced_word(w)):
                acc = self.kl._t_mult_gen(eng.lmul, s, acc)
            out = out + acc.scale(c)
        return out

    def t_to_c(self, h: HeckeElement) -> HeckeElement:
        """Convert a T-basis element to the C-basis by unitriangular elimination."""
        if h.basis != "T":
            raise ValueError("t_to_c expects a T-basis element")
        rest = h
        out = {}
        while rest:
            w = max(rest.coeffs, key=lambda e: (e.length(), e.index))
            c = rest.coefficient(w)
            out[w] = c
            rest = rest - self.kl.c_basis(w).scale(c)
        return HeckeElement("C", out)

    def c_to_t(self, h: HeckeElement) -> HeckeElement:
        if h.basis != "C":
            raise ValueError("c_to_t expects a C-basis element")
        out = HeckeElement("T", {})
        for w, c in h.coeffs.items():
            out = out + self.kl.c_basis(w).scale(c)
        return out

    def h_structure(self, x, y) -> dict:
        """h_{x,y,z} of C_x C_y = sum_z h_{x,y,z} C_z, through T-basis products."""
        prod = self.t_multiply(self.kl.c_basis(x), self.kl.c_basis(y))
        return dict(self.t_to_c(prod).coeffs)
