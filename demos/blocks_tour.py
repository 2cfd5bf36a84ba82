"""From W-graphs to block structure: balancing, leading coefficients and
residue-level isomorphism certificates.

Run as `python3 demos/blocks_tour.py`.
"""

from coxkl.balance import balance, gram_invariant_form, leading_coefficients
from coxkl.blocks import (
    block_report,
    intertwiner_space,
    label_multiset_from_character,
    omega_iso_certificate,
    tw_diagonal_congruence,
)
from coxkl.fixtures import b3_chi9_conjugate, b3_graphs
from coxkl.wgraph import validate_wgraph, wgraph_matrices

# ---------------------------------------------------------------------------
# The ten graphs of the B3 character table.

graphs = b3_graphs()
print("B3 graph table:")
for name, g in graphs.items():
    report = validate_wgraph(g)
    labels = ",".join("".join(map(str, sorted(l))) or "-" for l in g.labels)
    print(f"  {name:6s} dim {g.size}  labels [{labels}]  valid={report.ok}")

# The label multiset is an invariant of the character alone: it can be read
# off the traces at parabolic longest elements.
chi9 = graphs["chi9"]
rep9 = wgraph_matrices(chi9)
print("chi9 labels from its character:",
      {"".join(map(str, sorted(k))): v
       for k, v in label_multiset_from_character(rep9).items()})

# ---------------------------------------------------------------------------
# Balancing.  The Gram form over the standard basis is invariant; a monomial
# plus residue-field base change makes the module balanced with the maximal
# entry degree of the form never increasing.

rep2, data = balance(rep9)
print(f"chi9 balanced with a = {data.a_value}; form residue diagonal:",
      [str(x) for x in data.d])
lead = leading_coefficients(rep2, data.a_value)
print(f"leading table supported on {len(lead)} of 48 group elements")

# v^L(w) omega(T_w) is integral with residue diag(+-1 or 0): the sign is
# (-1)^l(w) exactly on vertices whose label contains the full support of w.
w = chi9.engine.simple[1] * chi9.engine.simple[0]
cong = tw_diagonal_congruence(chi9, w)
print("diagonal congruence at s1 s0:", cong.ok,
      "residue diag =", [str(cong.residue[i][i]) for i in range(3)])

# ---------------------------------------------------------------------------
# Residue block structure.  Any intertwiner between equal-character graphs
# reduces to a label-block-diagonal matrix mod m; for constant conjugates we
# can certify the isomorphism on the idempotent/arrow matrices themselves.

conj = b3_chi9_conjugate()
space = intertwiner_space(wgraph_matrices(chi9), wgraph_matrices(conj))
print(f"intertwiner space dimension: {len(space)}")
report = block_report(space[0], conj.labels, chi9.labels)
print("residue block diagonal:", report.diagonal)

cert = omega_iso_certificate(chi9, conj, space)
print("certificate matrix:", [[str(e) for e in row] for row in cert.matrix.entries])
print("conjugation residuals:", cert.residuals)

# The invariant form itself is block diagonal mod m as well.
form = gram_invariant_form(rep9)
print("gram form residue block diagonal:",
      block_report(form.matrix, chi9.labels, chi9.labels).diagonal)
