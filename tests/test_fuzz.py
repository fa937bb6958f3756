"""Generated documents against the loader and the command-line contract.

Small documents, law-breaking and malformed ones included, must either
load or raise ``MalformedDocument``, and ``validate`` and ``classify`` on
them must end with one of the documented exit codes (0 pass, 1 check
failed, 2 malformed input, 3 budget exceeded) without letting an
exception escape ``cli.main``.
"""

import contextlib
import hashlib
import io

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from invgpd import cli, docformat
from invgpd.equivariant import EquivariantFunctor
from invgpd.errors import MalformedDocument

OBJECTS = ["a", "b", "c"]
MORPHISMS = ["f", "g", "h"]
# lines that break the syntax of one entry or section
BROKEN_LINES = [
    "  bogus entry", "objects a", "  morphism f :", "  morphism f : a a", "  compose f f",
    "  identity a", "  inverse f", "functor F : X", "square S", "  left F", "involutive Y",
    "  base", "  object a b",
]
usually = st.sampled_from([True] * 7 + [False])
FUZZ = settings(max_examples=100, deadline=None, derandomize=True, database=None,
                suppress_health_check=[HealthCheck.too_slow])


@st.composite
def documents(draw) -> str:
    """A groupoid G, an involution X on it and a map F: X -> X.

    The entries mostly use declared names, so about half the documents
    load; the compose, inverse, identity and involution entries are drawn
    freely and often break the groupoid laws, and a map's image is
    sometimes a name nothing declares. One in four documents then gets one
    syntax or naming fault.
    """
    objects = draw(st.lists(st.sampled_from(OBJECTS), min_size=1, max_size=3, unique=True))
    obj = st.sampled_from(objects)
    ends = {m: (draw(obj), draw(obj)) for m in
            draw(st.lists(st.sampled_from(MORPHISMS), max_size=3, unique=True))}
    lines = ["groupoid G", "  objects " + " ".join(objects)]
    for m, (s, t) in ends.items():
        lines.append(f"  morphism {m} : {s} -> {t}")
        if s == t and draw(usually):  # else hom(s, s) is ambiguous
            lines.append(f"  inverse {m} = {m}")
    ends.update({f"id({x})": (x, x) for x in objects})
    mor = st.sampled_from(sorted(ends))
    image = st.sampled_from(sorted(ends) + ["z"])  # z is never declared
    for g, f, h in draw(st.lists(st.tuples(mor, mor, mor), max_size=2)):
        if ends[f][1] == ends[g][0]:
            lines.append(f"  compose {g} . {f} = {h}")
    lines += draw(st.lists(st.builds("  inverse {} = {}".format, mor, mor), max_size=1))
    lines += [f"  identity {s} = {m}" for m in draw(st.lists(mor, max_size=1))
              for s, t in [ends[m]] if s == t]
    lines += ["", "involutive X", "  base G"]
    lines += draw(st.lists(st.one_of(
        st.builds("  object {} -> {}".format, obj, obj),
        st.builds("  morphism {} -> {}".format, mor, image),
    ), max_size=2))
    # F is mostly the identity map, so most documents reach the searches
    lines += ["", "functor F : X -> X"]
    lines += [f"  object {x} -> {draw(st.one_of(st.just(x), obj))}" for x in objects]
    lines += [f"  morphism {m} -> {draw(st.one_of(st.just(m), image))}"
              for m in sorted(ends) if draw(usually)]
    if not draw(st.sampled_from([True] * 3 + [False])):
        i = draw(st.integers(1, len(lines) - 1))
        fault = draw(st.sampled_from(["broken", "unknown", "drop"]))
        if fault == "broken":
            lines.insert(i, draw(st.sampled_from(BROKEN_LINES)))
        elif fault == "unknown" and lines[i]:
            lines[i] = lines[i].rsplit(" ", 1)[0] + " z"  # an undeclared name
        else:
            del lines[i]
    return "\n".join(lines) + "\n"


@pytest.fixture(scope="module")
def doc_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "doc.gpd"


def run_main(argv) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main(argv)  # an exception escaping here fails the test
    return code, err.getvalue()


@FUZZ
@given(text=documents())
def test_generated_documents_load_or_exit_cleanly(doc_path, text):
    try:
        docformat.loads(text)
    except MalformedDocument:
        pass
    doc_path.write_text(text, encoding="utf-8")
    path = str(doc_path)
    for argv in (
        ["validate", path],
        ["classify", "F", "--structure", "injective", "--file", path, "--budget", "3000"],
        ["classify", "F", "--structure", "gpd", "--file", path],
    ):
        code, err = run_main(argv)
        assert code in (0, 1, 2, 3), (argv, code)
        assert "Traceback" not in err


def outcome(text: str) -> tuple:
    """What loads makes of a document: every table in insertion order, or
    the error's type and message."""
    try:
        doc = docformat.loads(text)
    except MalformedDocument as exc:
        return type(exc).__name__, str(exc)
    groupoids = [(name, G.objects, *(list(t.items()) for t in (
        G.morphisms, G.identity, G.compose, G.inverse))) for name, G in doc.groupoids.items()]
    involutives = [(name, [n for n, G in doc.groupoids.items() if G is X.base],
                    list(X.involution.obj_map.items()), list(X.involution.mor_map.items()))
                   for name, X in doc.involutives.items()]
    functors = [(name, isinstance(F, EquivariantFunctor), doc.functor_sig[name],
                 list(f.obj_map.items()), list(f.mor_map.items()))
                for name, F in doc.functors.items()
                for f in [F.map if isinstance(F, EquivariantFunctor) else F]]
    squares = [(name, list(sq.items())) for name, sq in doc.squares.items()]
    return groupoids, involutives, functors, squares


def loader_corpus() -> list[str]:
    """300 derandomized draws of documents(), each also with each
    BROKEN_LINES entry inserted at line 3 (unless the draw already holds
    that line, which would define a section twice), then the documents of
    test_docformat_cli.py and the bundled document."""
    from test_docformat_cli import (AMBIGUOUS_DOC, COLLIDING_DOC, COMMA_DOC, INVALID_DOC,
                                    NON_COMPOSABLE_DOC, SPARSE_DOC, UNDECLARED_IMAGE_DOCS)
    texts = []

    @settings(FUZZ, max_examples=300)
    @given(text=documents())
    def collect(text):
        lines = text.split("\n")
        texts.append(text)
        texts.extend("\n".join(lines[:3] + [b] + lines[3:]) for b in BROKEN_LINES
                     if b not in lines)

    collect()
    return texts + [AMBIGUOUS_DOC, COLLIDING_DOC, COMMA_DOC, INVALID_DOC, NON_COMPOSABLE_DOC,
                    SPARSE_DOC, *UNDECLARED_IMAGE_DOCS.values(),
                    docformat.dumps(cli.bundled_document())]


def test_loader_outcomes_match_the_recorded_digest():
    """Every table loads builds and every error message it gives on a fixed
    corpus, pinned by one digest, so no change to the loader moves them
    unnoticed. Changing the corpus (the draw count, documents(),
    BROKEN_LINES or the documents taken from test_docformat_cli.py), or a
    Hypothesis release that draws differently, needs a new digest."""
    texts = loader_corpus()
    digest = hashlib.sha256(repr([outcome(t) for t in texts]).encode()).hexdigest()
    assert (len(texts), digest) == (
        4199, "446fed301c45b1916ddf8180b3bfcd8ababb96e93247f0c9bf9b00bb6744420b")
