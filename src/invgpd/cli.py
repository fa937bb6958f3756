"""Command-line surface.

Subcommands operate on named structures resolved against the bundled
document (the standard shapes and maps of ``equivariant.REGISTRY``, under
their registry names, plus the counterexample maps and square) and an
optional user document::

    invgpd validate FILE
    invgpd classify FUNCTOR --structure {projective|injective|gpd}
    invgpd lift SQUARE [--count]
    invgpd pi --g FUNCTOR --f FUNCTOR
    invgpd path --f FUNCTOR
    invgpd universe --base N [--check-univalence {projective|injective}] [--closure]
    invgpd decompose FUNCTOR --structure ...
    invgpd factorize FUNCTOR --structure ...
    invgpd funext-check
    invgpd reproduce-paper [--base N]

Global flags: --budget K, --max-gluing-steps K, --format {human|json},
--seed S, --file EXTRA_DOCUMENT.

Exit codes: 0 all checks pass; 1 a check failed (with witness);
2 malformed input (a ``--file`` document that ``validate`` rejects, and
a file that cannot be read as UTF-8 text, are malformed input); 3 budget
or iteration cap exceeded, or Python's recursion limit reached (the
functor search recurses once per object, so at the default limit a
domain of about a thousand objects reaches it). Reports are emitted as
{check, verdict, witness?, steps?, budget_used} records; JSON output is
byte-stable for a fixed seed and budget.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from functools import cache

from . import docformat
from .budget import Budget, ensure_budget
from .core import classify_functor
from .equivariant import (
    REGISTRY,
    EquivariantFunctor,
    eq_identity,
    equivariant_pullback,
    terminal_map,
)
from .errors import BudgetExceeded, InvgpdError, IterationCapExceeded, MalformedDocument
from .homotopy import path_object
from .lifting import (
    LiftingProblem,
    StructureTag,
    as_equivariant,
    decompose_trivial_cofibration,
    factorize,
    functor_as_dict,
    generating_trivial_cofibrations,
    has_rlp,
    injective_classify,
    is_injective_fibration,
    is_trivial_cofibration,
    projective_classify,
    solve_lifting,
)
from .pi import pi_of
from .search import iter_functors
from .universe import (
    build_universe,
    check_funext_counterexample,
    check_univalence,
    default_closure_samples,
    equivalence_space,
    universe_closure_checks,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_MALFORMED = 2
EXIT_BUDGET = 3

FAIL_VERDICTS = {"FAIL", "FAILS"}


def bundled_document() -> docformat.Document:
    """The names every command resolves: the shapes and maps of
    ``REGISTRY`` (the objects themselves, each shape's groupoid as
    ``NAME.base``), the maps of S1, Icheck and nabla to the point, the
    identity of Icheck, and the square with no diagonal filler that shows
    Icheck over the point is not an injective fibration."""
    shapes = dict(REGISTRY.shapes)
    functors = dict(REGISTRY.maps)
    for name in ("S1", "Icheck", "nabla"):
        functors[f"{name}_to_point"] = terminal_map(shapes[name])
    functors["id_Icheck"] = eq_identity(shapes["Icheck"])
    name_of = {id(X): name for name, X in shapes.items()}
    return docformat.Document(
        groupoids={f"{name}.base": X.base for name, X in shapes.items()},
        involutives=shapes,
        functors=functors,
        functor_sig={name: (name_of[id(F.dom)], name_of[id(F.cod)])
                     for name, F in functors.items()},
        squares={"no-fixed-point-lift": {"left": "iprime", "right": "Icheck_to_point",
                                         "top": "id_Icheck", "bottom": "nabla_to_point"}},
    )


def merged_document(extra_path: str | None) -> docformat.Document:
    """The bundled document with the user's document loaded over it.

    A merged document that breaks the laws (or names a square's map that
    does not exist) is malformed input: every search assumes groupoids.
    """
    doc = bundled_document()
    if extra_path:
        user = docformat.load(extra_path)
        doc.groupoids.update(user.groupoids)
        doc.involutives.update(user.involutives)
        doc.functors.update(user.functors)
        doc.functor_sig.update(user.functor_sig)
        doc.squares.update(user.squares)
        diags = doc.diagnostics()
        if diags:
            where, problems = next(iter(diags.items()))
            raise MalformedDocument(f"{extra_path}: {where}: {problems[0]} "
                                    "('invgpd validate' lists every problem)")
    return doc


class Reporter:
    def __init__(self, fmt: str, budget: Budget):
        self.fmt = fmt
        self.budget = budget
        self.reports: list[dict] = []

    def add(self, check: str, verdict: str, witness=None, steps=None) -> None:
        rec: dict = {"check": check, "verdict": verdict}
        if witness is not None:
            rec["witness"] = witness
        if steps is not None:
            rec["steps"] = steps
        rec["budget_used"] = self.budget.used
        self.reports.append(rec)

    def emit(self) -> int:
        if self.fmt == "json":
            print(json.dumps(self.reports, indent=2, sort_keys=True))
        else:
            for rec in self.reports:
                line = f"{rec['verdict']:5s} {rec['check']}"
                if "steps" in rec:
                    line += f"  [steps={rec['steps']}]"
                print(line)
                if "witness" in rec and rec["verdict"] in FAIL_VERDICTS:
                    print(f"      witness: {json.dumps(rec['witness'], sort_keys=True)}")
                elif "witness" in rec:
                    print(f"      {json.dumps(rec['witness'], sort_keys=True)}")
        bad = any(r["verdict"] in FAIL_VERDICTS for r in self.reports)
        return EXIT_CHECK_FAILED if bad else EXIT_OK


def resolve_functor(doc: docformat.Document, name: str):
    if name not in doc.functors:
        raise MalformedDocument(f"no functor named {name!r} (bundled names: "
                                + ", ".join(sorted(doc.functors)) + ")")
    return doc.functors[name]


def resolve_square(doc: docformat.Document, name: str) -> LiftingProblem:
    if name not in doc.squares:
        raise MalformedDocument(f"no square named {name!r}")
    sq = doc.squares[name]
    maps = {}
    for k in ("left", "right", "top", "bottom"):
        if k not in sq:
            raise MalformedDocument(f"square {name}: missing {k}")
        maps[k] = as_equivariant(resolve_functor(doc, sq[k]))
    return LiftingProblem(maps["left"], maps["right"], maps["top"], maps["bottom"])


def base_elements(n: int) -> tuple[str, ...]:
    return tuple(f"e{k}" for k in range(n))


def cmd_validate(args, rep: Reporter) -> None:
    doc = docformat.load(args.file_arg)
    diags = doc.diagnostics()
    if diags:
        rep.add("validate", "FAIL", witness=diags)
    else:
        rep.add(
            "validate",
            "PASS",
            witness={
                "groupoids": sorted(doc.groupoids),
                "involutives": sorted(doc.involutives),
                "functors": sorted(doc.functors),
                "squares": sorted(doc.squares),
            },
        )


def cmd_classify(args, rep: Reporter) -> None:
    doc = merged_document(args.file)
    F = resolve_functor(doc, args.target)
    if args.structure == "gpd":
        flags = classify_functor(F.map if isinstance(F, EquivariantFunctor) else F).to_dict()
    elif args.structure == "projective":
        flags = projective_classify(F, rep.budget).to_dict()
    else:
        flags = injective_classify(F, rep.budget).to_dict()
    rep.add(f"classify {args.target} ({args.structure})", "PASS", witness=flags)


def cmd_lift(args, rep: Reporter) -> None:
    doc = merged_document(args.file)
    prob = resolve_square(doc, args.target)
    if args.count:
        filler, n = solve_lifting(prob, rep.budget, count_all=True)
    else:
        filler = solve_lifting(prob, rep.budget)
        n = None
    if filler is None:
        witness = {
            "square": args.target,
            "top": functor_as_dict(prob.top),
            "bottom": functor_as_dict(prob.bottom),
        }
        if n is not None:
            witness["fillers"] = 0
        rep.add(f"lift {args.target}", "FAIL", witness=witness)
    else:
        witness = functor_as_dict(filler)
        if n is not None:
            witness["fillers"] = n
        rep.add(f"lift {args.target}", "PASS", witness=witness)


def cmd_pi(args, rep: Reporter) -> None:
    doc = merged_document(args.file)
    g = as_equivariant(resolve_functor(doc, args.g))
    f = as_equivariant(resolve_functor(doc, args.f))
    bundle = pi_of(g, f, rep.budget)
    fixed = bundle.dom_pi.fixed_objects()
    flags = projective_classify(bundle.projection, rep.budget)
    rep.add(
        f"pi --g {args.g} --f {args.f}",
        "PASS",
        witness={
            "objects": bundle.dom_pi.base.n_objects,
            "morphisms": bundle.dom_pi.base.n_morphisms,
            "fixed_points": len(fixed),
            "projection_fibration": flags.fibration,
            "projection_weak_equivalence": flags.weak_equivalence,
        },
    )


def cmd_path(args, rep: Reporter) -> None:
    doc = merged_document(args.file)
    f = as_equivariant(resolve_functor(doc, args.f))
    pf = path_object(f)
    rep.add(
        f"path --f {args.f}",
        "PASS",
        witness={
            "objects": pf.path.base.n_objects,
            "morphisms": pf.path.base.n_morphisms,
            "delta1_trivial_cofibration": injective_classify(pf.delta1, rep.budget).trivial_cofibration,
            "delta2_fibration": is_injective_fibration(pf.delta2, rep.budget),
        },
    )


def cmd_universe(args, rep: Reporter) -> None:
    bundle = build_universe(base_elements(args.base), rep.budget)
    rep.add(
        f"universe --base {args.base}",
        "PASS",
        witness={
            "U_objects": bundle.U.base.n_objects,
            "U_morphisms": bundle.U.base.n_morphisms,
            "Utilde_objects": bundle.Utilde.base.n_objects,
            "p_discrete_fibration": classify_functor(bundle.p.map).discrete_fibration,
        },
    )
    if args.check_univalence:
        tag = StructureTag(args.check_univalence)
        rpt = check_univalence(bundle, tag, rep.budget)
        rep.add(f"univalence ({tag.value})", rpt.verdict, witness=rpt.witness)
    if args.closure:
        samples = default_closure_samples(bundle)
        samples += seeded_closure_samples(bundle, args.seed)
        crep = universe_closure_checks(bundle, samples, rep.budget)
        fails = [e for e in crep.entries if e["verdict"] == "FAIL"]
        overflow = [e for e in crep.entries if e["verdict"] == "OVERFLOW"]
        rep.add(
            "universe closure",
            "FAIL" if fails else "PASS",
            witness={
                "entries": len(crep.entries),
                "small": sum(1 for e in crep.entries if e["verdict"] == "SMALL"),
                "overflow": [
                    {"kind": e["kind"], "inputs": e["inputs"], "witness": e["witness"]}
                    for e in overflow
                ],
                "fail": fails,
            },
        )


def seeded_closure_samples(bundle, seed: int):
    """Extra pullbacks of the universal map along seeded random maps."""
    # imported here, not at the top: no other command needs generators, and
    # importing it adds about 4 ms (-X importtime) to every process's start-up
    from .generators import random_involutive

    rng = random.Random(seed)
    out = []
    for k in range(3):
        Bp = random_involutive(rng, max_objects=2, vertex_z2=False)
        maps = []
        for F in iter_functors(Bp.base, bundle.U.base,
                               equiv=(Bp.involution, bundle.U.involution)):
            maps.append(F)
            if len(maps) >= 50:
                break
        if not maps:
            continue
        g = EquivariantFunctor(Bp, bundle.U, rng.choice(maps))
        _, prB, _ = equivariant_pullback(g, bundle.p)
        out.append((f"seeded{k}", prB))
    return out


def cmd_decompose(args, rep: Reporter) -> None:
    doc = merged_document(args.file)
    f = as_equivariant(resolve_functor(doc, args.target))
    tag = StructureTag(args.structure)
    seq = decompose_trivial_cofibration(f, tag)
    rep.add(
        f"decompose {args.target} ({tag.value})",
        "PASS",
        witness={"cells": [[kind, str(data)] for kind, data in seq.steps]},
        steps=len(seq.steps),
    )


def cmd_factorize(args, rep: Reporter) -> None:
    doc = merged_document(args.file)
    f = as_equivariant(resolve_functor(doc, args.target))
    tag = StructureTag(args.structure)
    fact = factorize(f, tag, args.max_gluing_steps, rep.budget)
    gens = generating_trivial_cofibrations(tag)
    rep.add(
        f"factorize {args.target} ({tag.value})",
        "PASS",
        witness={
            "cells_attached": fact.cells_attached,
            # the generic square search, not factorize's closed-form check:
            # the report cross-checks that check's final verdict
            "right_factor_orthogonal": has_rlp(fact.q, gens, rep.budget).ok,
            "left_factor_trivial_cofibration": is_trivial_cofibration(fact.j, tag),
            "middle_objects": fact.q.dom.base.n_objects,
        },
        steps=fact.gluing_steps,
    )


def cmd_funext(args, rep: Reporter) -> None:
    rpt = check_funext_counterexample(rep.budget)
    reproduced = (
        rpt.verdict == "FAILS"
        and rpt.homotopy_equivalence_input
        and not rpt.pi_is_homotopy_equivalence
        and rpt.pi_objects == 4
        and rpt.pi_fixed_points == 2
        and rpt.terminal_fixed_points == 1
    )
    rep.add(
        "funext-counterexample",
        "PASS" if reproduced else "FAIL",
        witness=rpt.to_dict(),
    )


def cmd_reproduce(args, rep: Reporter) -> None:
    cmd_funext(args, rep)

    bundle = build_universe(base_elements(args.base), rep.budget)
    space = equivalence_space(bundle)
    rpt = check_univalence(bundle, StructureTag.PROJECTIVE, rep.budget, space)
    ok = rpt.verdict == "FAILS"
    witness = dict(rpt.witness)
    if ok:
        A, B, rho = witness["source_type"], witness["target_type"], witness["equivalence"]
        ok = A == B and rho != bundle.U.base.ident(A)
        witness["fixed_equivalence_is_identity"] = not ok
    rep.add("projective-univalence-failure", "PASS" if ok else "FAIL", witness=witness)

    rpt2 = check_univalence(bundle, StructureTag.INJECTIVE, rep.budget, space)
    rep.add(
        "injective-univalence",
        "PASS" if rpt2.verdict == "HOLDS" else "FAIL",
        witness=rpt2.witness,
    )

    # check_univalence(INJECTIVE) has just decided these three; the record
    # reads its flags and charges the units each check spent there, in the
    # order they ran, so budget_used and a stop over budget are those of
    # running them again (a bulk Budget.spend stops at the same unit)
    checks = {}
    for key, name in (("p_rlp", "p_fibration"), ("U_fibrant", "U_fibrant"),
                      ("Utilde_fibrant", "Utilde_fibrant")):
        rep.budget.spend(rpt2.units[name])
        checks[key] = rpt2.witness[name]
    rep.add(
        "universal-map-injective-fibrancy",
        "PASS" if all(checks.values()) else "FAIL",
        witness=checks,
    )


COMMANDS = {
    "validate": cmd_validate,
    "classify": cmd_classify,
    "lift": cmd_lift,
    "pi": cmd_pi,
    "path": cmd_path,
    "universe": cmd_universe,
    "decompose": cmd_decompose,
    "factorize": cmd_factorize,
    "funext-check": cmd_funext,
    "reproduce-paper": cmd_reproduce,
}

GLOBAL_DEFAULTS = {
    "budget": None,
    "max_gluing_steps": 8,
    "format": "human",
    "seed": 0,
    "file": None,
}


class _SubParser(argparse.ArgumentParser):
    def __init__(self, *a, **kw):
        kw.setdefault("allow_abbrev", False)
        super().__init__(*a, **kw)


def non_negative_int(text: str) -> int:
    """An argparse type: a count or limit, which is never negative."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must not be negative, got {value}")
    return value


@cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing leaves it
    unchanged, and every call gets a fresh namespace."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--budget", type=non_negative_int, default=argparse.SUPPRESS,
                        help="enumeration budget")
    common.add_argument("--max-gluing-steps", type=non_negative_int, default=argparse.SUPPRESS)
    common.add_argument("--format", choices=("human", "json"), default=argparse.SUPPRESS)
    common.add_argument("--seed", type=int, default=argparse.SUPPRESS,
                        help="seed for sampled suites")
    common.add_argument("--file", default=argparse.SUPPRESS,
                        help="extra document to resolve names in")

    p = argparse.ArgumentParser(prog="invgpd", description=__doc__.splitlines()[0],
                                parents=[common], allow_abbrev=False)
    sub = p.add_subparsers(dest="command", required=True, parser_class=_SubParser)

    sp = sub.add_parser("validate", parents=[common],
                        help="load a document and report diagnostics")
    sp.add_argument("file_arg", metavar="FILE")

    sp = sub.add_parser("classify", parents=[common], help="predicate flags of a functor")
    sp.add_argument("target", metavar="FUNCTOR")
    sp.add_argument("--structure", choices=("projective", "injective", "gpd"), required=True)

    sp = sub.add_parser("lift", parents=[common], help="solve a named lifting problem")
    sp.add_argument("target", metavar="SQUARE")
    sp.add_argument("--count", action="store_true", help="count all fillers")

    sp = sub.add_parser("pi", parents=[common], help="dependent product along a fibration")
    sp.add_argument("--g", required=True, metavar="FUNCTOR")
    sp.add_argument("--f", required=True, metavar="FUNCTOR")

    sp = sub.add_parser("path", parents=[common], help="canonical path object of a map")
    sp.add_argument("--f", required=True, metavar="FUNCTOR")

    sp = sub.add_parser("universe", parents=[common],
                        help="build the universe over a finite base")
    sp.add_argument("--base", type=non_negative_int, required=True, metavar="N")
    sp.add_argument("--check-univalence", choices=("projective", "injective"), default=None)
    sp.add_argument("--closure", action="store_true")

    sp = sub.add_parser("decompose", parents=[common],
                        help="cell decomposition of a trivial cofibration")
    sp.add_argument("target", metavar="FUNCTOR")
    sp.add_argument("--structure", choices=("projective", "injective", "gpd"), required=True)

    sp = sub.add_parser("factorize", parents=[common], help="gluing factorization of a map")
    sp.add_argument("target", metavar="FUNCTOR")
    sp.add_argument("--structure", choices=("projective", "injective", "gpd"), required=True)

    sub.add_parser("funext-check", parents=[common],
                   help="reproduce the function extensionality failure")

    sp = sub.add_parser("reproduce-paper", parents=[common],
                        help="run the headline reproduction checks")
    sp.add_argument("--base", type=non_negative_int, default=2, metavar="N")
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    for key, val in GLOBAL_DEFAULTS.items():
        if not hasattr(args, key):
            setattr(args, key, val)
    rep = Reporter(args.format, ensure_budget(args.budget))
    try:
        COMMANDS[args.command](args, rep)
    except (BudgetExceeded, IterationCapExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except RecursionError:
        print("error: recursion limit exceeded: the input is too large to search",
              file=sys.stderr)
        return EXIT_BUDGET
    except (InvgpdError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MALFORMED
    return rep.emit()


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
