"""Command-line front end.

Subcommands: group, kl, cells, wgraph (validate|matrices|dual|restrict|
cells|klgraph|omegagy), compat, balance, leading, jdata, cellrep, cellbasis,
blocks, labels, fixtures.  All output is JSON with sorted keys and canonical
element indices, so identical invocations are byte-identical.

Exit status: 0 on pass, 1 on verification failure, 2 on usage error,
including a path that cannot be read or written.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import asymptotic, balance as balance_mod, blocks as blocks_mod
from .coxeter import CATALOGUE, bit_indices
from .fixtures import catalogue, shared_engine
from .kl import KLContext
from .laurent import LaurentMatrix, format_laurent, laurent_formatter, shift
from .scalars import scalar_str
from .wgraph import (
    compatibility_graph,
    dual_wgraph,
    eigenspace_label_multiplicities,
    is_geck,
    kl_wgraph,
    omega_gy_relations_check,
    parabolic_restrict,
    validate_wgraph,
    wgraph_cells,
    wgraph_from_json,
    wgraph_group,
    wgraph_matrices,
    wgraph_to_json,
)

PASS, FAIL, USAGE = 0, 1, 2


def _emit(payload, out_path):
    text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    if out_path:
        Path(out_path).write_text(text)
    else:
        sys.stdout.write(text)


def _matrix_json(m: LaurentMatrix):
    return [[format_laurent(e) for e in row] for row in m.entries]


def _fmat_json(m):
    return [[scalar_str(x) for x in row] for row in m]


def _label(label) -> str:
    """A label set as its sorted generator digits, "-" for the empty set."""
    return "".join(str(s) for s in sorted(label)) or "-"


def _load_graph(path: str):
    data = json.loads(Path(path).read_text())
    return wgraph_from_json(data, engine=shared_engine(wgraph_group(data)))


def _load_valid_graph(path: str):
    """A W-graph file that `validate_wgraph` accepts, else exit 1."""
    g = _load_graph(path)
    report = validate_wgraph(g)
    if not report.ok:
        raise balance_mod.VerificationError(report.failures[0])
    return g


def _group_arg(args):
    ts = args.group
    if getattr(args, "weights", None) is not None:
        ts = ts + ":" + args.weights
    return shared_engine(ts)


def cmd_group(args):
    eng = _group_arg(args)
    payload = {
        "type": eng.datum.name,
        "weights": eng.datum.weights,
        "order": eng.order,
        "n_positive_roots": eng.n_positive,
        "w0": {
            "index": eng.w0.index,
            "word": eng.reduced_word(eng.w0),
            "length": eng.w0.length(),
            "weight": eng.weight(eng.w0),
        },
        "left_descents": {
            str(w.index): sorted(eng.left_descent_set(w)) for w in eng.elements
        },
        "right_descents": {
            str(w.index): sorted(eng.right_descent_set(w)) for w in eng.elements
        },
    }
    _emit(payload, args.out)
    return PASS


def cmd_kl(args):
    eng = _group_arg(args)
    kl = KLContext(eng)
    payload = {"group": eng.datum.name, "weights": eng.datum.weights}
    fmt = laurent_formatter()  # a table repeats few distinct polynomials
    if args.pair == "w0-col":
        row, lw0 = kl.pstar_row(eng.w0), eng.weight(eng.w0)
        payload["p_w0_column"] = {  # P_{x,w0} = v^(L(w0)-L(x)) P*_{x,w0}
            str(x.index): fmt(shift(row[x.index], lw0 - eng.weight(x)))
            for x in eng.elements
        }
    elif args.pair:
        try:
            yi, wi = (int(t) for t in args.pair.split(","))
        except ValueError:
            yi = wi = -1
        if not (0 <= yi < eng.order and 0 <= wi < eng.order):
            raise ValueError(f"bad --pair {args.pair!r}")
        y, w = eng.elements[yi], eng.elements[wi]
        payload["pstar"] = {f"{yi},{wi}": fmt(kl.pstar(y, w))}
        payload["p"] = {f"{yi},{wi}": fmt(kl.kl_polynomial(y, w))}
    else:
        # P*_{y,w} is nonzero exactly for y <= w; the mu-lists hold every
        # nonzero mu
        pstar = {}
        mu = {}
        for w in eng.elements:
            wi = w.index
            row = kl.pstar_row(w)
            for yi in bit_indices(eng.bruhat_down(w)):
                pstar[f"{yi},{wi}"] = fmt(row[yi])
            for s in range(eng.datum.rank):
                if s not in eng.left_descent_set(w):
                    for yi, m in kl.mu_list(w, s).items():
                        mu[f"{yi},{wi},{s}"] = fmt(m)
        payload["pstar"] = pstar
        payload["mu"] = mu
    _emit(payload, args.out)
    return PASS


def cmd_cells(args):
    eng = _group_arg(args)
    kl = KLContext(eng)
    part = kl.cells(args.kind)
    payload = {
        "kind": part.kind,
        "blocks": [[w.index for w in b] for b in part.blocks],
        "leq": sorted([i, j] for (i, j) in part.leq),
    }
    _emit(payload, args.out)
    return PASS


def cmd_wgraph(args):
    for flag, value, reader in (
        ("--group", args.group, "klgraph"),
        ("--weights", args.weights, "klgraph"),
        ("--subset", args.subset, "restrict"),
    ):
        if value is not None and args.action != reader:
            raise ValueError(f"wgraph {args.action} does not read {flag}")
    if args.action == "klgraph":
        if not args.group:
            raise ValueError("klgraph needs --group")
        eng = _group_arg(args)
        kl = KLContext(eng)
        g = kl_wgraph(kl)
        _emit(wgraph_to_json(g), args.out)
        return PASS
    if not args.file:
        raise ValueError(f"wgraph {args.action} needs a W-graph file")
    g = _load_graph(args.file)
    if args.action == "validate":
        report = validate_wgraph(g)
        geck_ok, geck_diag = is_geck(g)
        payload = {
            "valid": report.ok,
            "geck": geck_ok,
            "failures": report.failures + geck_diag,
            "checked_pairs": [list(p) for p in report.checked_pairs],
        }
        _emit(payload, args.out)
        return PASS if report.ok else FAIL
    if args.action == "matrices":
        rep = wgraph_matrices(g)
        payload = {str(s): _matrix_json(m) for s, m in enumerate(rep.gens)}
        _emit(payload, args.out)
        return PASS
    if args.action == "dual":
        _emit(wgraph_to_json(dual_wgraph(g)), args.out)
        return PASS
    if args.action == "restrict":
        if not args.subset:
            raise ValueError("restrict needs --subset")
        try:
            j = frozenset(int(t) for t in args.subset.split(","))
        except ValueError as exc:
            raise ValueError(f"bad --subset {args.subset!r}: {exc}") from None
        sub, sub_eng, _ = parabolic_restrict(g, j)
        if sub_eng.datum.name not in CATALOGUE:
            raise ValueError(f"generators {sorted(j)} span no shipped parabolic type")
        _emit(wgraph_to_json(sub), args.out)
        return PASS
    if args.action == "cells":
        parts = wgraph_cells(g)
        payload = {
            "cells": [
                {"vertices": verts, "graph": wgraph_to_json(cg)}
                for cg, verts in parts
            ]
        }
        _emit(payload, args.out)
        return PASS
    # argparse's choices leave only "omegagy"
    report = omega_gy_relations_check(g)
    payload = {
        "ok": report.ok,
        "checked": report.checked,
        "failures": report.failures,
    }
    _emit(payload, args.out)
    return PASS if report.ok else FAIL


def cmd_compat(args):
    eng = _group_arg(args)
    cg = compatibility_graph(eng.datum)
    payload = {
        "vertices": [_label(v) for v in cg.vertices],
        "edges": sorted(f"{_label(i)}<-{_label(j)}" for (i, j) in cg.edges),
        "transversal": sorted(
            f"{_label(i)}<->{_label(j)}"
            for (i, j) in cg.transversal
            if sorted(map(_label, (i, j))) == [_label(i), _label(j)]
        ),
    }
    _emit(payload, args.out)
    return PASS


def cmd_balance(args):
    g = _load_graph(args.file)
    rep = wgraph_matrices(g)
    # `balance` raises a VerificationError (exit 1, no report) on a module
    # it cannot balance, so a report is always of a balanced module
    _, data = balance_mod.balance(rep)
    payload = {
        "a_value": data.a_value,
        "D": [scalar_str(x) for x in data.d],
        "Q": _matrix_json(data.q),
        "balanced": True,
        "degree_history": data.degree_history,
    }
    _emit(payload, args.out)
    return PASS


def cmd_leading(args):
    g = _load_valid_graph(args.file)
    rep = wgraph_matrices(g)
    a, table = balance_mod.leading_coefficients(rep)
    payload = {
        "a_value": a,
        "leading": {str(w.index): _fmat_json(c) for w, c in table.items()},
    }
    _emit(payload, args.out)
    return PASS


def cmd_jdata(args):
    jd = asymptotic.jdata_from_kl(KLContext(_group_arg(args)))
    gamma = {}
    for (x, y), row in jd.gamma.items():
        for z, val in row.items():
            gamma[f"{x.index},{y.index},{z.index}"] = scalar_str(val)
    payload = {
        "gamma": gamma,
        "n": {str(x.index): scalar_str(v) for x, v in jd.n.items()},
        "duflo": sorted(d.index for d in jd.duflo),
    }
    _emit(payload, args.out)
    return PASS


def cmd_cellrep(args):
    g = _load_graph(args.file)
    kl = KLContext(g.engine)
    report = asymptotic.geck_mueller_check(g, kl)
    payload = {
        "balanced": report.balanced,
        "a_value": report.a_value,
        "entrywise_equal": report.entrywise_equal,
        "characters_equal": report.characters_equal,
        "verdict": report.verdict,
    }
    _emit(payload, args.out)
    return PASS if report.balanced else FAIL


def cmd_cellbasis(args):
    eng = _group_arg(args)
    kl = KLContext(eng)
    irreducibles = asymptotic.irreducible_data(
        eng, asymptotic.irreducible_cell_reps(kl)
    )
    cd = asymptotic.cell_basis(irreducibles, kl)
    report = asymptotic.verify_cell_axioms(cd, kl)
    payload = {
        "dims": cd.dims,
        "axioms_ok": report.ok,
        "failures": report.failures,
        "basis": {
            f"{li},{s},{t}": {str(w.index): scalar_str(c) for w, c in coeffs.items()}
            for (li, s, t), coeffs in cd.basis.items()
        },
        "order_lt": sorted([a, b] for (a, b) in cd.lambda_lt),
    }
    _emit(payload, args.out)
    return PASS if report.ok else FAIL


def cmd_blocks(args):
    g1 = _load_valid_graph(args.file)
    g2 = _load_valid_graph(args.file2)
    blocks_mod.require_geck(g1, g2)
    r1 = wgraph_matrices(g1)
    r2 = wgraph_matrices(g2)
    space = blocks_mod.intertwiner_space(r1, r2)
    verdicts = []
    all_diag = True
    for a in space:
        br = blocks_mod.block_report(a, g2.labels, g1.labels)
        verdicts.append(
            {
                "matrix": _matrix_json(a),
                "diagonal": br.diagonal,
                "triangular": br.triangular,
                "offdiag_nonzero": sorted(
                    f"{_label(i)},{_label(j)}" for i, j in br.offdiag_residues
                ),
            }
        )
        all_diag = all_diag and br.diagonal
    cert = blocks_mod.omega_iso_certificate(g1, g2, space)
    payload = {
        "intertwiner_count": len(space),
        "intertwiners": verdicts,
        "certificate": None
        if cert is None
        else {
            "ok": cert.ok,
            "matrix": _matrix_json(cert.matrix),
            "residuals": cert.residuals,
            "note": cert.note,
        },
    }
    _emit(payload, args.out)
    if space and not all_diag:
        return FAIL
    if cert is not None and not cert.ok:
        return FAIL
    return PASS


def cmd_labels(args):
    g = _load_valid_graph(args.file)
    rep = wgraph_matrices(g)
    from_char = blocks_mod.label_multiset_from_character(rep)
    from_eig = eigenspace_label_multiplicities(rep)
    graph_ms = g.label_multiset()
    agree = from_char == from_eig == graph_ms
    payload = {
        "from_character": {_label(k): v for k, v in from_char.items()},
        "from_eigenspaces": {_label(k): v for k, v in from_eig.items()},
        "graph": {_label(k): v for k, v in graph_ms.items()},
        "agree": agree,
    }
    _emit(payload, args.out)
    return PASS if agree else FAIL


def cmd_fixtures(args):
    outdir = Path(args.out or "fixtures")
    outdir.mkdir(parents=True, exist_ok=True)
    names = []
    for name, g in sorted(catalogue().items()):
        path = outdir / f"{name}.json"
        path.write_text(json.dumps(wgraph_to_json(g), sort_keys=True, indent=2) + "\n")
        names.append(name)
    sys.stdout.write(json.dumps({"written": names, "dir": str(outdir)}, sort_keys=True, indent=2) + "\n")
    return PASS


def run_selftest() -> int:
    """Validate every shipped fixture; exit 1 on the first failure."""
    bad = []
    for name, g in sorted(catalogue().items()):
        rep = validate_wgraph(g)
        geck_ok, diag = is_geck(g)
        if not rep.ok or not geck_ok:
            bad.append((name, rep.failures + diag))
    payload = {
        "fixtures": len(catalogue()),
        "ok": not bad,
        "failures": {n: f for n, f in bad},
    }
    sys.stdout.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")
    return PASS if not bad else FAIL


def _add_common(p, group=False):
    p.add_argument("--out", help="write JSON here instead of stdout")
    if group:
        p.add_argument("--group", required=True, help="type string, e.g. A3 or I2(5)")
        p.add_argument("--weights", help="comma-separated generator weights")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="coxkl",
        description="Exact Kazhdan-Lusztig data and W-graph block structure "
        "for finite Coxeter groups",
    )
    ap.add_argument(
        "--selftest",
        action="store_true",
        help="validate every shipped fixture and exit",
    )
    sub = ap.add_subparsers(dest="command")

    p = sub.add_parser("group", help="orders, longest element, descent tables")
    _add_common(p, group=True)
    p.set_defaults(func=cmd_group)

    p = sub.add_parser("kl", help="P*/mu tables")
    _add_common(p, group=True)
    p.add_argument("--pair", help="'w0-col' or 'Y,W' canonical indices")
    p.set_defaults(func=cmd_kl)

    p = sub.add_parser("cells", help="KL cell partition and preorder")
    _add_common(p, group=True)
    p.add_argument("--kind", default="left", choices=["left", "right", "two-sided"])
    p.set_defaults(func=cmd_cells)

    p = sub.add_parser("wgraph", help="W-graph operations")
    p.add_argument(
        "action",
        choices=["validate", "matrices", "dual", "restrict", "cells", "klgraph", "omegagy"],
    )
    p.add_argument("file", nargs="?", help="W-graph JSON file")
    p.add_argument("--subset", help="generator indices for restrict, e.g. 1,2")
    p.add_argument("--group", help="type string (for klgraph)")
    p.add_argument("--weights", help="comma-separated generator weights")
    _add_common(p)
    p.set_defaults(func=cmd_wgraph)

    p = sub.add_parser("compat", help="compatibility digraph on label sets")
    _add_common(p, group=True)
    p.set_defaults(func=cmd_compat)

    p = sub.add_parser("balance", help="balance the module of a W-graph file")
    p.add_argument("file")
    _add_common(p)
    p.set_defaults(func=cmd_balance)

    p = sub.add_parser("leading", help="leading-coefficient table of a W-graph file")
    p.add_argument("file")
    _add_common(p)
    p.set_defaults(func=cmd_leading)

    p = sub.add_parser("jdata", help="gamma/n/Duflo tables")
    _add_common(p, group=True)
    p.set_defaults(func=cmd_jdata)

    p = sub.add_parser("cellrep", help="cell-module comparison for a W-graph file")
    p.add_argument("file")
    _add_common(p)
    p.set_defaults(func=cmd_cellrep)

    p = sub.add_parser("cellbasis", help="cellular basis and axiom checks")
    _add_common(p, group=True)
    p.set_defaults(func=cmd_cellbasis)

    p = sub.add_parser("blocks", help="block structure of intertwiners between two files")
    p.add_argument("file")
    p.add_argument("file2")
    _add_common(p)
    p.set_defaults(func=cmd_blocks)

    p = sub.add_parser("labels", help="label multiset from character vs eigenspaces")
    p.add_argument("file")
    _add_common(p)
    p.set_defaults(func=cmd_labels)

    p = sub.add_parser("fixtures", help="write the shipped fixture catalogue")
    p.add_argument("--out", help="target directory (default ./fixtures)")
    p.set_defaults(func=cmd_fixtures)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    if args.selftest:
        return run_selftest()
    if not getattr(args, "command", None):
        ap.print_help()
        return USAGE
    try:
        return args.func(args)
    except balance_mod.VerificationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return FAIL
    except (ValueError, OSError) as exc:  # json.JSONDecodeError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return USAGE


if __name__ == "__main__":
    sys.exit(main())
