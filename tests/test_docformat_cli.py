"""Document format round-trips and the command-line surface."""

import inspect
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import invgpd
from invgpd import docformat
from invgpd.cli import bundled_document, main
from invgpd.core import Functor, codiscrete, discrete, identity_functor, validate_groupoid
from invgpd.equivariant import REGISTRY, eq_identity, trivial_action
from invgpd.errors import MalformedDocument
from invgpd.generators import plain_catalog

INVALID_DOC = """
groupoid broken
  objects 0 1
  morphism phi : 0 -> 1
  inverse phi = phi
"""

AMBIGUOUS_DOC = """
groupoid amb
  objects x
  morphism a : x -> x
  morphism b : x -> x
"""

# an object and a morphism whose names contain the pair-ID separator
COMMA_DOC = """
groupoid G
  objects a,b
  morphism t : a,b -> a,b
  inverse t = t
  compose t . t = id(a,b)

groupoid P
  objects *

involutive G!
  base G

involutive P!
  base P

functor f : G! -> P!
  object a,b -> *
  morphism t -> id(*)
"""

# pair IDs collide: (a,b,c) names both (a, "b,c") and ("a,b", c)
COLLIDING_DOC = """
groupoid G
  objects a b,c a,b c

groupoid P
  objects *

involutive G!
  base G

involutive P!
  base P

functor t : G! -> P!
  object a -> *
  object b,c -> *
  object a,b -> *
  object c -> *
"""

# a compose line on a pair that is not composable: f . f with f : a -> b
NON_COMPOSABLE_DOC = """
groupoid G
  objects a b
  morphism f : a -> b
  compose f . f = f

groupoid P
  objects *

involutive G!
  base G

involutive P!
  base P

functor t : G! -> P!
  object a -> *
  object b -> *
  morphism f -> id(*)
"""

REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference"

SPARSE_DOC = """
# a two-element vertex group given sparsely
groupoid z2
  objects x
  morphism t : x -> x
  inverse t = t
  compose t . t = id(x)
"""


def test_bundled_documents_load_and_validate():
    # the bundled document is the registry itself, not a copy of it
    doc = bundled_document()
    assert doc.diagnostics() == {}
    for name in ("0!", "1!", "I", "Icheck", "nabla", "S1", "SI"):
        assert doc.involutives[name] is REGISTRY.shape(name)
    for name in ("u", "i", "Si", "iprime", "fold"):
        assert doc.functors[name] is REGISTRY.map(name)
    assert "no-fixed-point-lift" in doc.squares
    # a user document merged over it must not reach the registry
    assert doc.involutives is not REGISTRY.shapes and doc.functors is not REGISTRY.maps
    doc2 = docformat.loads(docformat.dumps(doc))
    assert doc2.functor_sig == doc.functor_sig
    for name, F in doc.functors.items():
        assert doc2.functors[name].map.obj_map == F.map.obj_map
        assert doc2.functors[name].map.mor_map == F.map.mor_map


def test_invalid_inverse_loads_and_fails_validation():
    doc = docformat.loads(INVALID_DOC)
    problems = validate_groupoid(doc.groupoids["broken"])
    assert problems and any("inverse" in p for p in problems)


def test_ambiguous_composition_is_rejected():
    with pytest.raises(MalformedDocument):
        docformat.loads(AMBIGUOUS_DOC)


def test_sparse_composition_completion():
    doc = docformat.loads(SPARSE_DOC)
    G = doc.groupoids["z2"]
    assert validate_groupoid(G) == []
    assert G.n_morphisms == 2
    assert G.comp("t", "t") == "id(x)"


def test_document_roundtrip():
    # the catalog's vertex-group components name identities m(x,x,0), not id(x)
    catalog = docformat.Document(groupoids={
        f"G{k}": G for k, G in enumerate(plain_catalog(3, vertex_z2=True))
    })
    for doc in (bundled_document(), catalog):
        text = docformat.dumps(doc)
        doc2 = docformat.loads(text)
        assert set(doc2.groupoids) == set(doc.groupoids)
        assert set(doc2.involutives) == set(doc.involutives)
        assert set(doc2.functors) == set(doc.functors)
        assert set(doc2.squares) == set(doc.squares)
        for name, G in doc.groupoids.items():
            H = doc2.groupoids[name]
            assert G.objects == H.objects
            assert G.morphisms == H.morphisms
            assert G.identity == H.identity
            assert G.compose == H.compose
            assert G.inverse == H.inverse
        for name, X in doc.involutives.items():
            Y = doc2.involutives[name]
            assert X.involution.obj_map == Y.involution.obj_map
            assert X.involution.mor_map == Y.involution.mor_map


def test_dumps_names_the_ends_of_a_functor_without_a_signature():
    G, H, K = discrete(("a",)), codiscrete(("x", "y")), discrete(("k",))
    X, Y = trivial_action(H), trivial_action(K)  # Y's base is no groupoid of the document
    doc = docformat.Document(
        groupoids={"G": G, "H": H}, involutives={"X": X, "Y": Y},
        functors={"f": Functor(G, H, {"a": "y"}, {"id(a)": "id(y)"}),
                  "e": eq_identity(X),
                  "k": Functor(K, G, {"k": "a"}, {"id(k)": "id(a)"})})
    doc2 = docformat.loads(docformat.dumps(doc))
    assert doc2.functor_sig == {"f": ("G", "H"), "e": ("X", "X"), "k": ("Y.base", "G")}
    assert doc2.functors["f"].mor_map == {"id(a)": "id(y)"}
    assert doc2.functors["e"].map.mor_map == {m: m for m in H.morphisms}
    assert doc2.functors["k"].dom == K
    orphan = docformat.Document(groupoids={"G": G}, functors={"g": identity_functor(H)})
    with pytest.raises(MalformedDocument, match="functor g"):
        docformat.dumps(orphan)


@pytest.mark.parametrize("G, bad", [
    (discrete(("a b",)), "a b"),
    (codiscrete(("x#1", "y")), "x#1"),
    (discrete(("",)), ""),
], ids=["space", "hash", "empty"])
def test_dumps_rejects_ids_the_text_cannot_carry(G, bad):
    # loads splits lines at whitespace and drops what follows '#'; the
    # bundled document's IDs round-trip (test_document_roundtrip)
    with pytest.raises(MalformedDocument, match=re.escape(repr(bad))):
        docformat.dumps(docformat.Document(groupoids={"G": G}))


# one section of each kind; DEFINED_TWICE appends a second of one kind at line 12
ONE_OF_EACH = """groupoid G
  objects a

involutive X
  base G

functor F : X -> X
  object a -> a

square S
  left F
"""
DEFINED_TWICE = {
    "groupoid": "groupoid G\n  objects a b\n",
    "involutive": "involutive X\n  base G\n",
    "functor": "functor F : X -> X\n  object a -> a\n",
    "square": "square S\n  left F\n",
}


@pytest.mark.parametrize("kind", sorted(DEFINED_TWICE))
def test_a_name_defined_twice_is_malformed(kind):
    # a second section of one kind and name would silently replace the first
    docformat.loads(ONE_OF_EACH)
    name = DEFINED_TWICE[kind].split()[1]
    with pytest.raises(MalformedDocument,
                       match=re.escape(f"line 12: {kind} {name} is already defined")):
        docformat.loads(ONE_OF_EACH + DEFINED_TWICE[kind])


def test_cli_name_defined_twice_exits_2(tmp_path, capsys):
    twice = tmp_path / "twice.gpd"
    twice.write_text(ONE_OF_EACH + DEFINED_TWICE["groupoid"], encoding="utf-8")
    for argv in (["validate", str(twice)],
                 ["classify", "F", "--structure", "gpd", "--file", str(twice)]):
        assert main(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: line 12: groupoid G is already defined\n", argv


@pytest.mark.parametrize("text, message", [
    ("groupoid G\n  objects a b\n  morphism f : a -> b extra\n", "line 3: bad morphism line"),
    ("groupoid G\n  objects a\n\nfunctor F : G -> G\n  object a -> a a\n",
     "line 5: bad object line"),
    ("square S\n  left F G\n", "line 2: bad left line"),
    ("groupoid G H\n", "line 1: groupoid header must be 'groupoid N'"),
], ids=["groupoid-entry", "map-entry", "square-entry", "header"])
def test_trailing_tokens_are_malformed(text, message):
    # tokens past a line's shape would otherwise be dropped without a word
    with pytest.raises(MalformedDocument, match=f"^{re.escape(message)}$"):
        docformat.loads(text)


def test_functor_header_error_names_its_line():
    with pytest.raises(MalformedDocument, match=re.escape(
            "line 3: functor header must be 'functor N : D -> C'")):
        docformat.loads("groupoid G\n  objects a\nfunctor F . G -> G\n")


def run_cli(*argv) -> tuple[int, str]:
    # the child imports the same package as the tests, installed or not
    src = str(Path(invgpd.__file__).resolve().parents[1])
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "invgpd.cli", *argv],
        env=env, capture_output=True, text=True,
    )
    return proc.returncode, proc.stdout


def test_cli_classify_bundled_iprime():
    code, out = run_cli("classify", "iprime", "--structure", "projective", "--format", "json")
    assert code == 0
    rec = json.loads(out)[0]
    assert rec["witness"]["trivial_cofibration"] is False
    code, out = run_cli("classify", "iprime", "--structure", "injective", "--format", "json")
    rec = json.loads(out)[0]
    assert rec["witness"]["trivial_cofibration"] is True


def test_cli_lift_no_filler_exits_1_with_witness():
    code, out = run_cli("lift", "no-fixed-point-lift", "--format", "json")
    assert code == 1
    rec = json.loads(out)[0]
    assert rec["verdict"] == "FAIL"
    assert "witness" in rec


def test_cli_malformed_input_exit_2():
    code, _ = run_cli("classify", "no-such-name", "--structure", "gpd")
    assert code == 2


def test_cli_budget_exceeded_exit_3():
    for budget in ("10", "0"):
        code, _ = run_cli("universe", "--base", "3", "--budget", budget)
        assert code == 3, budget


@pytest.mark.parametrize("budget, units", [("34838", "34839"), ("20000", "20001")])
def test_cli_universe_budget_stops_at_the_same_unit(budget, units, capsys):
    """build_universe at |V|=3 spends 34,839 units, charged in closed form
    one fiber size at a time before anything is built; 20,000 falls inside
    the charge for size 3, and a bulk charge stops at the same unit as one
    charge per object, morphism and composite."""
    assert main(["universe", "--base", "3", "--budget", budget]) == 3
    assert f"({units} > {budget} candidates)" in capsys.readouterr().err


def discrete_to_point_doc(n: int) -> str:
    """A map f from the discrete groupoid on n objects to the point."""
    objects = [f"x{i}" for i in range(n)]
    return "\n".join([
        "groupoid D", "  objects " + " ".join(objects),
        "groupoid P", "  objects *",
        "involutive D!", "  base D",
        "involutive P!", "  base P",
        "functor f : D! -> P!", *(f"  object {x} -> *" for x in objects),
    ]) + "\n"


def test_cli_recursion_limit_exits_3(tmp_path, capsys):
    """The functor search recurses once per object, so a large enough
    domain reaches the recursion limit: at the default limit, 1,000
    objects do. The limit is lowered here, so that 300 objects reach it."""
    path = tmp_path / "discrete.gpd"
    path.write_text(discrete_to_point_doc(300), encoding="utf-8")
    argv = ["classify", "f", "--structure", "projective", "--file", str(path)]
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack()) + 200)
    try:
        code = main(argv)
    finally:
        sys.setrecursionlimit(limit)
    captured = capsys.readouterr()
    assert (code, captured.out) == (3, "")
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    # a small domain of the same kind passes
    path.write_text(discrete_to_point_doc(3), encoding="utf-8")
    assert main(argv) == 0


def test_cli_universe_too_large_a_base_exits_3_at_once(capsys):
    """|V| = 8 would need about 10^18 units; the closed-form charge stops
    at the default budget before any table of it is built."""
    assert main(["universe", "--base", "8"]) == 3
    assert "(10000001 > 10000000 candidates)" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["universe", "--base", "-1"],
    ["reproduce-paper", "--base", "-1"],
    ["factorize", "nabla_to_point", "--structure", "injective", "--max-gluing-steps", "-1"],
    ["factorize", "nabla_to_point", "--structure", "injective", "--budget", "-3"],
])
def test_cli_negative_counts_are_malformed(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "must not be negative" in capsys.readouterr().err


def test_cli_zero_counts_stay_valid(capsys):
    # nabla -> 1! is already a fibration: no gluing step is needed, but the
    # report's cross-check still spends budget
    argv = ["factorize", "nabla_to_point", "--structure", "injective"]
    assert main([*argv, "--max-gluing-steps", "0"]) == 0
    assert main([*argv, "--budget", "0"]) == 3


def test_cli_reproduce_paper_passes():
    code, out = run_cli("reproduce-paper", "--base", "2", "--format", "json")
    assert code == 0
    recs = json.loads(out)
    checks = [r["check"] for r in recs]
    assert checks == [
        "funext-counterexample",
        "projective-univalence-failure",
        "injective-univalence",
        "universal-map-injective-fibrancy",
    ]
    assert all(r["verdict"] == "PASS" for r in recs)


def test_cli_json_stable_under_reruns():
    a = run_cli("universe", "--base", "2", "--closure", "--seed", "5", "--format", "json")
    b = run_cli("universe", "--base", "2", "--closure", "--seed", "5", "--format", "json")
    assert a == b
    c = run_cli("funext-check", "--format", "json")
    d = run_cli("funext-check", "--format", "json")
    assert c == d


def test_cli_validate_reports_diagnostics(tmp_path):
    bad = tmp_path / "bad.gpd"
    bad.write_text(INVALID_DOC, encoding="utf-8")
    code, out = run_cli("validate", str(bad), "--format", "json")
    assert code == 1
    rec = json.loads(out)[0]
    assert rec["verdict"] == "FAIL"


def test_cli_user_file_resolution(tmp_path):
    extra = tmp_path / "extra.gpd"
    extra.write_text(
        "groupoid two\n  objects a b\n\n"
        "involutive two!\n  base two\n\n"
        "functor diag2 : two! -> two!\n  object a -> a\n  object b -> b\n\n"
        # a user square may name the bundled maps
        "square mine\n  left iprime\n  right Icheck_to_point\n"
        "  top id_Icheck\n  bottom nabla_to_point\n",
        encoding="utf-8",
    )
    code, out = run_cli("classify", "diag2", "--structure", "gpd",
                        "--file", str(extra), "--format", "json")
    assert code == 0
    rec = json.loads(out)[0]
    assert rec["witness"]["discrete_fibration"] is True
    code, out = run_cli("lift", "mine", "--file", str(extra), "--format", "json")
    assert (code, json.loads(out)[0]["verdict"]) == (1, "FAIL")


def test_cli_in_process_calls_share_no_options(capsys):
    # the parser is built once per process; a flag given to one call must
    # not carry over to the next
    argv = ["classify", "iprime", "--structure", "gpd"]
    assert main(argv + ["--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)[0]["verdict"] == "PASS"
    assert main(argv) == 0
    assert capsys.readouterr().out.startswith("PASS  classify")


# -- in process: the paths the subprocess tests above cover out of process ------


def json_records(capsys) -> list[dict]:
    return json.loads(capsys.readouterr().out)


def test_cli_lift_fails_on_the_square_it_cannot_fill(capsys):
    functors = bundled_document().functors
    maps = {side: {"objects": functors[name].map.obj_map, "morphisms": functors[name].map.mor_map}
            for side, name in (("top", "id_Icheck"), ("bottom", "nabla_to_point"))}
    for extra, counted in (([], {}), (["--count"], {"fillers": 0})):
        assert main(["lift", "no-fixed-point-lift", *extra, "--format", "json"]) == 1
        [rec] = json_records(capsys)
        assert rec["verdict"] == "FAIL"
        assert rec["witness"] == {"square": "no-fixed-point-lift", **maps, **counted}


def test_cli_classify_projective_reports_its_evidence(capsys):
    assert main(["classify", "iprime", "--structure", "projective", "--format", "json"]) == 0
    [rec] = json_records(capsys)
    assert rec["verdict"] == "PASS"
    assert rec["witness"] == {
        "weak_equivalence": True, "fibration": False, "trivial_cofibration": False,
        "cofibration_evidence": False,
        "evidence_family": ["Icheck->1!", "nabla->1!", "SI->S1", "IcheckxIcheck->Icheck"],
    }
    assert main(["classify", "Icheck_to_point", "--structure", "projective",
                 "--format", "json"]) == 0
    assert json_records(capsys)[0]["witness"]["fibration"] is True


def test_cli_universe_checks_univalence(capsys):
    assert main(["universe", "--base", "2", "--check-univalence", "projective",
                 "--format", "json"]) == 1
    built, verdict = json_records(capsys)
    assert built["verdict"] == "PASS"
    assert (verdict["check"], verdict["verdict"]) == ("univalence (projective)", "FAILS")
    swap = "<[{e0.e1}|{e0.e1}|e0>e0;e1>e1]->[{e0.e1}|{e0.e1}|e0>e0;e1>e1]:e0>e1;e1>e0>"
    assert verdict["witness"] == {
        "equivalence": swap,
        "fixed_equivalence_outside_image": f"po({swap})",
        "fixed_point_bijection": False,
        "levelwise_equivalence": True,
        "source_type": "[{e0.e1}|{e0.e1}|e0>e0;e1>e1]",
        "target_type": "[{e0.e1}|{e0.e1}|e0>e0;e1>e1]",
    }
    assert main(["universe", "--base", "2", "--check-univalence", "injective",
                 "--format", "json"]) == 0
    _, verdict = json_records(capsys)
    assert (verdict["check"], verdict["verdict"]) == ("univalence (injective)", "HOLDS")
    assert verdict["witness"] == dict.fromkeys(
        ["E_fibrant", "U_fibrant", "Utilde_fibrant", "delta1_trivial_cofibration",
         "delta2_fibration", "p_fibration"], True)


def test_cli_names_with_pair_id_separators(tmp_path, capsys):
    comma = tmp_path / "comma.gpd"
    comma.write_text(COMMA_DOC, encoding="utf-8")
    assert main(["path", "--f", "f", "--file", str(comma), "--format", "json"]) == 0
    witness = json.loads(capsys.readouterr().out)[0]["witness"]
    assert (witness["objects"], witness["morphisms"]) == (2, 8)
    colliding = tmp_path / "colliding.gpd"
    colliding.write_text(COLLIDING_DOC, encoding="utf-8")
    assert main(["path", "--f", "t", "--file", str(colliding)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_cli_non_composable_compose_line_is_malformed(tmp_path, capsys):
    bad = tmp_path / "non_composable.gpd"
    bad.write_text(NON_COMPOSABLE_DOC, encoding="utf-8")
    for argv in (["path", "--f", "t", "--file", str(bad)],
                 ["classify", "t", "--structure", "injective", "--file", str(bad)],
                 ["validate", str(bad)]):
        assert main(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1, argv


def test_cli_unreadable_file_is_malformed(tmp_path, capsys):
    """A directory or a file that is not UTF-8 text is malformed input,
    like a missing file: exit 2 with a one-line message that names the
    file, no traceback."""
    binary = tmp_path / "binary.gpd"
    binary.write_bytes(b"groupoid G\n  objects \xff\n")
    for path in (tmp_path, binary, tmp_path / "missing.gpd"):
        for argv in (["validate", str(path)],
                     ["classify", "iprime", "--structure", "gpd", "--file", str(path)]):
            assert main(argv) == 2, argv
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("error: ") and captured.err.count("\n") == 1, argv
            assert str(path) in captured.err, argv


# an involution and a functor that send a morphism to a name G does not declare
UNDECLARED_IMAGE_DOCS = {
    "involutive": """
groupoid G
  objects a

involutive X
  base G
  morphism id(a) -> z

functor F : X -> X
  object a -> a
""",
    "functor": """
groupoid G
  objects a

involutive X
  base G

functor F : X -> X
  object a -> a
  morphism id(a) -> z
""",
}


@pytest.mark.parametrize("kind", sorted(UNDECLARED_IMAGE_DOCS))
def test_cli_image_outside_the_morphisms_is_malformed(kind, tmp_path, capsys):
    """validate used to die with a raw KeyError on the involution's image
    (a case tests/test_fuzz.py generates); both maps are rejected at load."""
    bad = tmp_path / "undeclared.gpd"
    bad.write_text(UNDECLARED_IMAGE_DOCS[kind], encoding="utf-8")
    with pytest.raises(MalformedDocument, match="image of id\\(a\\) is not a morphism"):
        docformat.load(str(bad))
    for argv in (["validate", str(bad)],
                 ["classify", "F", "--structure", "injective", "--file", str(bad)]):
        assert main(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {kind} ")


def test_cli_reports_match_benchmark_reference(capsys):
    """The byte-stable reports, budget_used included, equal the committed
    benchmark references."""
    runs = {
        "reproduce-b2.json": ["reproduce-paper", "--base", "2", "--format", "json"],
        "universe-b3.seed0.json": ["universe", "--base", "3", "--closure",
                                   "--seed", "0", "--format", "json"],
    }
    for name, argv in runs.items():
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert out == (REFERENCE / name).read_text(encoding="utf-8"), name


def test_cli_reproduce_budget_stops_at_the_same_unit(capsys, monkeypatch):
    """reproduce-paper --base 2 spends 188,198 units; one fewer is exit 3."""
    argv = ["reproduce-paper", "--base", "2", "--format", "json"]
    assert main([*argv, "--budget", "188197"]) == 3
    assert "(188198 > 188197 candidates)" in capsys.readouterr().err
    assert main([*argv, "--budget", "188198"]) == 0
    capsys.readouterr()
    # the last record charges the units that the checks on p, U and Ũ spent
    # inside check_univalence: 9,288, 3,760 and 3,520 after the 171,630 of
    # the injective-univalence record. Stops at the first and last unit of
    # each, and between, come after that record and before the next, with
    # the stderr of running the three checks again.
    from invgpd import cli

    reporters = []

    class Recording(cli.Reporter):
        def __init__(self, *args):
            super().__init__(*args)
            reporters.append(self)

    monkeypatch.setattr(cli, "Reporter", Recording)
    for extra in (1, 9_288, 9_289, 13_048, 13_049, 16_567):
        limit = 171_630 + extra
        assert main([*argv, "--budget", str(limit)]) == 3
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == (
            "", f"error: enumeration budget exceeded ({limit + 1} > {limit} candidates)\n")
        records = reporters.pop().reports
        assert [r["check"] for r in records][-1] == "injective-univalence"
        assert records[-1]["budget_used"] == 171_630


def test_cli_reproduce_builds_the_equivalence_space_once(monkeypatch, capsys):
    from invgpd import cli, homotopy, universe

    calls = []
    original = homotopy.path_object

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for module in (cli, homotopy, universe):
        monkeypatch.setattr(module, "path_object", counted)
    assert main(["reproduce-paper", "--base", "2", "--format", "json"]) == 0
    capsys.readouterr()
    assert len(calls) == 1


def test_cli_reproduce_runs_each_fibrancy_check_once(monkeypatch, capsys):
    """check_univalence(INJECTIVE) runs six square searches; the fibrancy
    record reads three of them instead of running them again."""
    from invgpd import cli, lifting

    calls = []
    original = lifting.has_rlp

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for module in (cli, lifting):
        monkeypatch.setattr(module, "has_rlp", counted)
    assert main(["reproduce-paper", "--base", "2", "--format", "json"]) == 0
    capsys.readouterr()
    assert len(calls) == 6


def test_cli_decompose_names_the_registry_cell(capsys):
    # the bundled Si is the registry's, whose S1 object is l:*
    assert main(["decompose", "Si", "--structure", "injective", "--format", "json"]) == 0
    rec = json.loads(capsys.readouterr().out)[0]
    assert rec["witness"]["cells"] == [["Si", "l:*"]]


def test_cli_in_process_decompose_and_factorize():
    assert main(["decompose", "iprime", "--structure", "injective"]) == 0
    assert main(["factorize", "Icheck_to_point", "--structure", "injective"]) == 0
    assert main(["pi", "--g", "S1_to_point", "--f", "fold"]) == 0
    assert main(["path", "--f", "Icheck_to_point"]) == 0
