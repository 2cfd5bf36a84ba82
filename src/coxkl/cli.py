"""Command-line front end.

Subcommands: group, kl, cells, wgraph, compat, balance, leading, jdata,
cellrep, cellbasis, blocks, labels, fixtures, one row each of `COMMANDS`;
the `wgraph` actions (validate, matrices, dual, restrict, cells, klgraph,
omegagy) are the rows of `WGRAPH_ACTIONS`, each declaring only what it
reads.  A handler takes the parsed arguments and returns a JSON payload and
a verdict; `main` alone writes the payload, as JSON with sorted keys, to
stdout or to `--out`.  Element indices are canonical, so identical
invocations are byte-identical.

Each call is a fresh process, so it pays only for its own command:
`build_parser` builds just the rows that the command line names, and `run`,
the entry point of `coxkl` and `python -m coxkl.cli`, freezes the objects
of the import with `gc.freeze()` before it calls `main` and ends the process
with `os._exit` after it, without tearing the interpreter down.  `main`
flushes stdout itself, so a write that fails is its usage error.  The import
loads no `json`, `pathlib` or `typing`: `json_text` encodes strings with the
C encoder of `_json`, only a command that reads a W-graph file imports
`json`, and only `fixtures` imports `pathlib`.

Exit status: 0 when the verdict passes, 1 when it fails or a
`VerificationError` is raised, 2 on usage error, including a path that
cannot be read or written and an argument its command does not declare.
"""

from __future__ import annotations

import argparse
import gc
import os
import re
import sys
from _json import encode_basestring_ascii as _encode_str

from . import asymptotic, balance as balance_mod, blocks as blocks_mod
from .coxeter import CATALOGUE, bit_indices, shared_engine
from .fixtures import catalogue
from .kl import KLContext
from .laurent import LaurentMatrix, format_laurent, laurent_formatter, shift
from .scalars import scalar_str
from .wgraph import (
    compatibility_graph,
    dual_wgraph,
    is_geck,
    kl_wgraph,
    omega_gy_relations_check,
    parabolic_restrict,
    validate_wgraph,
    wgraph_cells,
    wgraph_from_json,
    wgraph_matrices,
    wgraph_to_json,
)

PASS, FAIL, USAGE = 0, 1, 2


def json_text(payload) -> str:
    """The one text form of every output: sorted keys, two-space indent.

    The bytes are exactly those of `json.dumps(payload, sort_keys=True,
    indent=2) + "\\n"`, whose indenting encoder is pure Python on some
    versions; this writer encodes each string with the C
    `encode_basestring_ascii` and joins its pieces once.  It takes dicts
    with str keys, lists, tuples, str, int, bool and None; any other value
    raises TypeError."""
    parts: list[str] = []
    append = parts.append

    def write(o, nl: str) -> None:
        # nl is the newline and indent that start each line at this depth
        if isinstance(o, str):
            append(_encode_str(o))
        elif o is None:
            append("null")
        elif o is True:
            append("true")
        elif o is False:
            append("false")
        elif isinstance(o, int):
            append(int.__repr__(o))
        elif isinstance(o, (list, tuple)):
            if not o:
                append("[]")
                return
            inner = nl + "  "
            sep = "[" + inner
            for item in o:
                append(sep)
                write(item, inner)
                sep = "," + inner
            append(nl + "]")
        elif isinstance(o, dict):
            if not o:
                append("{}")
                return
            inner = nl + "  "
            sep = "{" + inner
            for key in sorted(o):
                # the encoder raises TypeError on a key that is not a str
                append(sep + _encode_str(key) + ": ")
                write(o[key], inner)
                sep = "," + inner
            append(nl + "}")
        else:
            raise TypeError(
                f"Object of type {type(o).__name__} is not JSON serializable"
            )

    write(payload, "\n")
    append("\n")
    return "".join(parts)


def _int_list(text: str) -> list[int]:
    """The comma-separated integers of an option value, each an optional
    sign and ASCII digits: `int` alone also reads other Unicode digits, "_"
    and surrounding whitespace."""
    for t in text.split(","):
        if not re.fullmatch(r"[+-]?[0-9]+", t):
            raise ValueError(f"invalid literal for int() with base 10: {t!r}")
    return [int(t) for t in text.split(",")]


def _matrix_json(m: LaurentMatrix):
    return [[format_laurent(e) for e in row] for row in m.entries]


def _label(label) -> str:
    """A label set as its sorted generator digits, "-" for the empty set."""
    return "".join(str(s) for s in sorted(label)) or "-"


def _load_graph(path: str):
    import json  # only the commands that read a W-graph file pay for it

    with open(path) as f:
        return wgraph_from_json(json.load(f))


def _load_valid_graph(path: str):
    """A W-graph file that `validate_wgraph` accepts, else exit 1."""
    g = _load_graph(path)
    report = validate_wgraph(g)
    if not report.ok:
        raise balance_mod.VerificationError(report.failures[0])
    return g


def _group_arg(args):
    weights = "" if args.weights is None else ":" + args.weights
    return shared_engine(args.group + weights)


def cmd_group(args):
    eng = _group_arg(args)
    return {
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
    }, True


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
            yi, wi = _int_list(args.pair)
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
        pstar, mu = {}, {}
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
    return payload, True


def cmd_cells(args):
    part = KLContext(_group_arg(args)).cells(args.kind)
    return {
        "kind": part.kind,
        "blocks": [[w.index for w in b] for b in part.blocks],
        "leq": sorted([i, j] for (i, j) in part.leq),
    }, True


def _wgraph_validate(args):
    g = _load_graph(args.file)
    report = validate_wgraph(g)
    geck_ok, geck_diag = is_geck(g)
    return {
        "valid": report.ok,
        "geck": geck_ok,
        "failures": report.failures + geck_diag,
        "checked_pairs": [list(p) for p in report.checked_pairs],
    }, report.ok


def _wgraph_matrices(args):
    rep = wgraph_matrices(_load_graph(args.file))
    return {str(s): _matrix_json(m) for s, m in enumerate(rep.gens)}, True


def _wgraph_restrict(args):
    g = _load_graph(args.file)
    try:
        j = _int_list(args.subset)
        if len(set(j)) < len(j):
            raise ValueError("repeats a generator")
    except ValueError as exc:
        raise ValueError(f"bad --subset {args.subset!r}: {exc}") from None
    sub, sub_eng, _ = parabolic_restrict(g, frozenset(j))
    if sub_eng.datum.name not in CATALOGUE:
        raise ValueError(f"generators {sorted(j)} span no shipped parabolic type")
    return wgraph_to_json(sub), True


def _wgraph_cells(args):
    pieces = wgraph_cells(_load_graph(args.file))
    cells = [{"vertices": v, "graph": wgraph_to_json(cg)} for cg, v in pieces]
    return {"cells": cells}, True


def _wgraph_klgraph(args):
    return wgraph_to_json(kl_wgraph(KLContext(_group_arg(args)))), True


def _wgraph_omegagy(args):
    report = omega_gy_relations_check(_load_graph(args.file))
    payload = {"ok": report.ok, "checked": report.checked, "failures": report.failures}
    return payload, report.ok


def cmd_compat(args):
    cg = compatibility_graph(_group_arg(args).datum)
    return {
        "vertices": [_label(v) for v in cg.vertices],
        "edges": sorted(f"{_label(i)}<-{_label(j)}" for (i, j) in cg.edges),
        "transversal": sorted(
            f"{_label(i)}<->{_label(j)}"
            for (i, j) in cg.transversal
            if sorted(map(_label, (i, j))) == [_label(i), _label(j)]
        ),
    }, True


def cmd_balance(args):
    rep = wgraph_matrices(_load_valid_graph(args.file))
    # `balance` raises a VerificationError (exit 1, no report) on a module
    # it cannot balance, so a report is always of a balanced module
    _, data = balance_mod.balance(rep)
    return {
        "a_value": data.a_value,
        "D": [scalar_str(x) for x in data.d],
        "Q": _matrix_json(data.q),
        "balanced": True,
        "degree_history": data.degree_history,
    }, True


def cmd_leading(args):
    rep = wgraph_matrices(_load_valid_graph(args.file))
    a, table = balance_mod.leading_coefficients(rep)
    return {
        "a_value": a,
        "leading": {
            str(w.index): [[scalar_str(x) for x in row] for row in c]
            for w, c in table.items()
        },
    }, True


def cmd_jdata(args):
    jd = asymptotic.jdata_from_kl(KLContext(_group_arg(args)))
    gamma = {}
    for (x, y), row in jd.gamma.items():
        for z, val in row.items():
            gamma[f"{x.index},{y.index},{z.index}"] = scalar_str(val)
    return {
        "gamma": gamma,
        "n": {str(x.index): scalar_str(v) for x, v in jd.n.items()},
        "duflo": sorted(d.index for d in jd.duflo),
    }, True


def cmd_cellrep(args):
    g = _load_graph(args.file)
    report = asymptotic.geck_mueller_check(g, KLContext(g.engine))
    return {
        "balanced": report.balanced,
        "a_value": report.a_value,
        "entrywise_equal": report.entrywise_equal,
        "characters_equal": report.characters_equal,
        "verdict": report.verdict,
    }, report.balanced and report.characters_equal


def cmd_cellbasis(args):
    eng = _group_arg(args)
    kl = KLContext(eng)
    irreducibles = asymptotic.irreducible_data(
        eng, asymptotic.irreducible_cell_reps(kl)
    )
    cd = asymptotic.cell_basis(irreducibles, kl)
    report = asymptotic.verify_cell_axioms(cd, kl)
    return {
        "dims": cd.dims,
        "axioms_ok": report.ok,
        "failures": report.failures,
        "basis": {
            f"{li},{s},{t}": {str(w.index): scalar_str(c) for w, c in coeffs.items()}
            for (li, s, t), coeffs in cd.basis.items()
        },
        "order_lt": sorted([a, b] for (a, b) in cd.lambda_lt),
    }, report.ok


def cmd_blocks(args):
    g1 = _load_valid_graph(args.file)
    g2 = _load_valid_graph(args.file2)
    blocks_mod.require_geck(g1, g2)
    space = blocks_mod.intertwiner_space(wgraph_matrices(g1), wgraph_matrices(g2))
    verdicts = []
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
    ok = all(v["diagonal"] for v in verdicts) and (cert is None or cert.ok)
    return payload, ok


def cmd_labels(args):
    g = _load_valid_graph(args.file)
    rep = wgraph_matrices(g)
    from_char = blocks_mod.label_multiset_from_character(rep)
    # The eigenspace multiplicities are the graph's own.  With e_s and x_s of
    # `omega_matrices`, rho(T_s) + v_s^-1 = (v_s + v_s^-1)(1 - e_s) + x_s, and
    # the support condition (checked by `_load_valid_graph`) gives x_s =
    # e_s x_s (1 - e_s), so the kernel is im e_s, spanned by the x with s in
    # I(x).  The kernels over s in I meet in the span of the x with I in I(x),
    # so the multiplicity at I is #{x : I(x) = I}.  The tests hold this
    # against Laurent elimination.
    graph_ms = g.label_multiset()
    labels = {_label(k): v for k, v in graph_ms.items()}
    agree = from_char == graph_ms
    return {
        "from_character": {_label(k): v for k, v in from_char.items()},
        "from_eigenspaces": labels,
        "graph": labels,
        "agree": agree,
    }, agree


def cmd_fixtures(args):
    """Write each catalogue graph to DIR/<name>.json; the payload names them."""
    from pathlib import Path

    outdir = Path(args.dir or "fixtures")
    outdir.mkdir(parents=True, exist_ok=True)
    graphs = catalogue()
    for name in sorted(graphs):
        (outdir / f"{name}.json").write_text(json_text(wgraph_to_json(graphs[name])))
    return {"written": sorted(graphs), "dir": str(outdir)}, True


def run_selftest():
    """Validate every shipped fixture; the verdict fails on any failure."""
    graphs = catalogue()
    failures = {}
    for name, g in sorted(graphs.items()):
        rep = validate_wgraph(g)
        geck_ok, diag = is_geck(g)
        if not rep.ok or not geck_ok:
            failures[name] = rep.failures + diag
    payload = {"fixtures": len(graphs), "ok": not failures, "failures": failures}
    return payload, not failures


OUT = (("--out",), {"help": "write JSON here instead of stdout"})
GROUP = [
    OUT,
    (("--group",), {"required": True, "help": "type string, e.g. A3 or I2(5)"}),
    (("--weights",), {"help": "comma-separated generator weights"}),
]
FILE = [(("file",), {}), OUT]

# One row per subcommand: name, help, handler, and the arguments as
# (flags, add_argument keywords) pairs; a handler that is a table of such
# rows makes them the actions of its command.
WGRAPH_ACTIONS = [
    ("validate", "W-graph axioms and the Geck condition", _wgraph_validate, FILE),
    ("matrices", "the generator matrices", _wgraph_matrices, FILE),
    ("dual", "the dual W-graph",
     lambda args: (wgraph_to_json(dual_wgraph(_load_graph(args.file))), True), FILE),
    ("restrict", "restriction to a parabolic subgroup", _wgraph_restrict,
     [(("file",), {}),
      (("--subset",), {"required": True, "help": "generator indices, e.g. 1,2"}),
      OUT]),
    ("cells", "the cells of a W-graph file", _wgraph_cells, FILE),
    ("klgraph", "the KL W-graph of a group", _wgraph_klgraph, GROUP),
    ("omegagy", "path-sum relations of the Omega-module", _wgraph_omegagy, FILE),
]
COMMANDS = [
    ("group", "orders, longest element, descent tables", cmd_group, GROUP),
    ("kl", "P*/mu tables", cmd_kl,
     [*GROUP, (("--pair",), {"help": "'w0-col' or 'Y,W' canonical indices"})]),
    ("cells", "KL cell partition and preorder", cmd_cells,
     [*GROUP, (("--kind",), {"default": "left",
                             "choices": ["left", "right", "two-sided"]})]),
    ("wgraph", "W-graph operations", WGRAPH_ACTIONS, []),
    ("compat", "compatibility digraph on label sets", cmd_compat, GROUP),
    ("balance", "balance the module of a W-graph file", cmd_balance, FILE),
    ("leading", "leading-coefficient table of a W-graph file", cmd_leading, FILE),
    ("jdata", "gamma/n/Duflo tables", cmd_jdata, GROUP),
    ("cellrep", "cell-module comparison for a W-graph file", cmd_cellrep, FILE),
    ("cellbasis", "cellular basis and axiom checks", cmd_cellbasis, GROUP),
    ("blocks", "block structure of intertwiners between two files", cmd_blocks,
     [(("file",), {}), (("file2",), {}), OUT]),
    ("labels", "label multiset from character vs eigenspaces", cmd_labels, FILE),
    ("fixtures", "write the shipped fixture catalogue", cmd_fixtures,
     [(("--out",), {"dest": "dir", "help": "target directory (default ./fixtures)"})]),
]


def build_parser(argv=()) -> argparse.ArgumentParser:
    """The `coxkl` parser with only the `COMMANDS` row that argv[0] names
    and, for `wgraph`, only the action that argv[1] names.  Every row is
    built when there is none to pick: no argv, a leading option, an unknown
    name.  A sub-command's usage, help and errors do not depend on its
    siblings, so one row prints what every row would."""
    ap = argparse.ArgumentParser(
        prog="coxkl",
        description="Exact Kazhdan-Lusztig data and W-graph block structure "
        "for finite Coxeter groups",
    )
    ap.add_argument("--selftest", action="store_true",
                    help="validate every shipped fixture and exit")
    _add_commands(ap.add_subparsers(dest="command"), COMMANDS, argv)
    return ap


def _add_commands(sub, rows, argv):
    named = [row for row in rows if argv and row[0] == argv[0]]
    for name, help_text, handler, arguments in named or rows:
        p = sub.add_parser(name, help=help_text)
        for flags, options in arguments:
            p.add_argument(*flags, **options)
        if isinstance(handler, list):
            _add_commands(p.add_subparsers(dest="action", required=True), handler,
                          argv[1:] if named else ())
        else:
            p.set_defaults(func=handler, parser=p)


def main(argv=None) -> int:
    """Run one command: write its payload, and exit 0 or 1 on its verdict,
    1 on a `VerificationError` and 2 on a usage error."""
    argv = sys.argv[1:] if argv is None else list(argv)
    ap = build_parser(argv)
    args, extras = ap.parse_known_args(argv)
    if extras:
        # reported by the (sub-)command that received them: the root parser
        # was left with those that stand before the command
        head = argv[: argv.index(args.command)] if args.command else argv
        root_extras = ap.parse_known_args(head)[1]
        parser = ap if root_extras else args.parser
        parser.error(f"unrecognized arguments: {' '.join(root_extras or extras)}")
    try:
        if not (args.selftest or args.command):
            ap.print_help()
            sys.stdout.flush()
            return USAGE
        if args.selftest and args.command:
            raise ValueError(f"--selftest takes no command, got {args.command}")
        payload, ok = run_selftest() if args.selftest else args.func(args)
        text = json_text(payload)
        out = getattr(args, "out", None)
        if out:
            with open(out, "w") as f:
                f.write(text)
        else:
            sys.stdout.write(text)
            sys.stdout.flush()
    except balance_mod.VerificationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return FAIL
    except (ValueError, OSError) as exc:  # json.JSONDecodeError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return USAGE
    return PASS if ok else FAIL


def run() -> int:
    """The process entry point: `main` on the command line, after
    `gc.freeze()`, and then `os._exit` with its status.

    The objects alive after the import (the modules, their classes and
    functions) live until exit anyway.  Frozen, they are walked by no
    collection during the run.  Once `main` has returned, nothing is left
    for a normal exit to do: `main` has flushed stdout inside its error
    handling (a full disk or a closed pipe is its exit 2 with one `error:`
    line, under any buffering), it has closed any `--out` file, stderr is
    line-buffered and gets only whole lines, and coxkl registers no
    `atexit` hook.  So `os._exit` hands the process to the OS without
    tearing down the interpreter, and drops what a failed flush left in
    stdout's buffer.  An exception or an argparse `SystemExit` that escapes
    `main` exits the normal way.  `main` itself neither freezes nor exits,
    since in-process callers run it many times."""
    gc.freeze()
    os._exit(main())


if __name__ == "__main__":
    sys.exit(run())
