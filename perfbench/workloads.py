"""The benchmark's workloads: seeded inputs, one timed op, and its check.

A workload is built from the seed before any timing starts. ``run(i)``
performs op ``i`` of its input list (the list is cycled) and returns the
raw answer; ``check(i, answer)`` verifies that answer outside the timed
region and returns a failure message or ``None``. ``units(answer)`` reads
the budget units the op spent, from outside the program.

Functions of the program are looked up through their modules at call
time, so the tracer's wrappers are used when tracing is on.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from pathlib import Path

from invgpd import cli, docformat, equivariant, generators, homotopy, lifting, pi, universe
from invgpd.budget import Budget
from invgpd.core import Functor, Groupoid

DEFAULT_SEED = 0
CLASS_SEED = 0  # draws catalog-mix's instance classes, the same for every seed
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


def digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode("utf-8")).hexdigest()


def groupoid_data(G) -> dict:
    return {
        "objects": list(G.objects),
        "morphisms": {m: list(G.morphisms[m]) for m in G.mor_ids()},
        "identity": dict(G.identity),
        "compose": sorted([g, f, h] for (g, f), h in G.compose.items()),
        "inverse": dict(G.inverse),
    }


def functor_data(F) -> dict:
    return {"objects": dict(F.obj_map), "morphisms": dict(F.mor_map)}


def equivariant_data(f) -> dict:
    return {
        "dom": groupoid_data(f.dom.base),
        "dom_involution": functor_data(f.dom.involution),
        "cod": groupoid_data(f.cod.base),
        "cod_involution": functor_data(f.cod.involution),
        "map": functor_data(f.map),
    }


def run_cli(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def read_reference(name: str) -> str | None:
    path = REFERENCE_DIR / name
    return path.read_text(encoding="utf-8") if path.exists() else None


def check_records(code: int, text: str) -> tuple[list[dict] | None, str | None]:
    if code != 0:
        return None, f"exit code {code}"
    records = json.loads(text)
    bad = [r["check"] for r in records if r["verdict"] != "PASS"]
    if bad:
        return None, f"checks not PASS: {bad}"
    return records, None


class Workload:
    trace_ops = 1  # ops in one traced pass
    reference = None

    def load_reference(self) -> None:
        """Compare answers with the committed reference outputs from now on."""

    def info(self) -> dict:
        """Workload-specific notes for the run summary."""
        return {}


class ReproduceB2(Workload):
    """``reproduce-paper --base 2``: the headline reproduction, in process."""

    name = "reproduce-b2"
    argv = ["reproduce-paper", "--base", "2", "--format", "json"]

    def __init__(self, seed: int):
        # The op has no seeded input; the seed is recorded with the digest.
        self.seed = seed
        self.inputs_digest = digest(self.argv)

    def load_reference(self) -> None:
        self.reference = read_reference("reproduce-b2.json")

    def run(self, i: int):
        return run_cli(self.argv)

    def check(self, i: int, answer) -> str | None:
        code, text = answer
        records, err = check_records(code, text)
        if err:
            return err
        if self.reference is not None and text != self.reference:
            return "JSON differs from perfbench/reference/reproduce-b2.json"
        return None

    @staticmethod
    def units(answer) -> int:
        return json.loads(answer[1])[-1]["budget_used"]


class UniverseB3(Workload):
    """``universe --base 3 --closure`` plus the injective fibrancy verdict at |V|=3."""

    name = "universe-b3"

    def __init__(self, seed: int):
        self.seed = seed
        self.argv = ["universe", "--base", "3", "--closure", "--seed", str(seed),
                     "--format", "json"]
        self.first_text: str | None = None
        self.inputs_digest = digest(self.argv)

    def load_reference(self) -> None:
        if self.seed == DEFAULT_SEED:
            self.reference = read_reference("universe-b3.seed0.json")

    def run(self, i: int):
        code, text = run_cli(self.argv)
        b = Budget()
        bundle = universe.build_universe(cli.base_elements(3), b)
        inj = lifting.StructureTag.INJECTIVE
        gens = lifting.generating_trivial_cofibrations(inj)
        flags = {
            "p_rlp": lifting.has_rlp(bundle.p, gens, b).ok,
            "U_fibrant": lifting.is_fibrant(bundle.U, inj, b),
            "Utilde_fibrant": lifting.is_fibrant(bundle.Utilde, inj, b),
        }
        return code, text, flags, b.used

    def check(self, i: int, answer) -> str | None:
        code, text, flags, _ = answer
        records, err = check_records(code, text)
        if err:
            return err
        if not all(flags.values()):
            return f"injective fibrancy flags not all True: {flags}"
        w = records[0]["witness"]
        sizes = (w["U_objects"], w["U_morphisms"], w["Utilde_objects"])
        if sizes != (34, 946, 63) or not w["p_discrete_fibration"]:
            return f"universe at |V|=3 has the wrong shape: {w}"
        if records[1]["witness"]["fail"]:
            return "universe closure reports FAIL entries"
        if self.reference is not None and text != self.reference:
            return "JSON differs from perfbench/reference/universe-b3.seed0.json"
        if self.first_text is None:
            self.first_text = text
        elif text != self.first_text:
            return "JSON differs between repetitions of the same op"
        return None

    @staticmethod
    def units(answer) -> int:
        return json.loads(answer[1])[-1]["budget_used"] + answer[3]


def relabel(G: Groupoid, rng: random.Random) -> tuple[Groupoid, dict, dict]:
    """A copy of ``G`` under fresh seeded names, with the renamings used.

    Identities named ``id(x)``, the text format's convention, keep that
    form; every other morphism gets a fresh name, identities included.
    """
    objs = dict(zip(G.objects, (f"x{k}" for k in rng.sample(range(100), G.n_objects))))
    fresh = (f"f{k}" for k in rng.sample(range(1000), G.n_morphisms))
    mors = {
        m: f"id({objs[G.src(m)]})" if m == f"id({G.src(m)})" == G.identity[G.src(m)] else next(fresh)
        for m in G.mor_ids()
    }
    H = Groupoid(
        tuple(objs.values()),
        {mors[m]: (objs[x], objs[y]) for m, (x, y) in G.morphisms.items()},
        {objs[x]: mors[m] for x, m in G.identity.items()},
        {(mors[g], mors[f]): mors[h] for (g, f), h in G.compose.items()},
        {mors[m]: mors[w] for m, w in G.inverse.items()},
    )
    return H, objs, mors


def relabel_instance(instance, rng: random.Random):
    """``(f, a, b)`` on copies of ``f.dom`` and ``f.cod`` under fresh names."""
    f = instance[0]
    sides = []
    for X in (f.dom, f.cod):
        H, objs, mors = relabel(X.base, rng)
        inv = X.involution
        sides.append((
            equivariant.InvolutiveGroupoid(H, Functor(
                H, H, {objs[x]: objs[y] for x, y in inv.obj_map.items()},
                {mors[m]: mors[n] for m, n in inv.mor_map.items()})),
            objs, mors,
        ))
    (X, ox, mx), (Y, oy, my) = sides
    return tuple(
        equivariant.EquivariantFunctor(X, Y, Functor(
            X.base, Y.base, {ox[x]: oy[y] for x, y in g.map.obj_map.items()},
            {mx[m]: my[n] for m, n in g.map.mor_map.items()}))
        for g in instance
    )


class CatalogMix(Workload):
    """A seeded stream of small lifting, Pi, homotopy and document queries.

    The instance classes are stratified: each round visits every ordered
    pair of the small groupoid shapes of ``generators.plain_catalog`` (at
    most 3 objects and 6 morphisms, two-element vertex groups allowed)
    once, with drawn involutions, an equivariant map ``f`` and two
    parallel maps ``a, b``. A pair without any equivariant map under the
    drawn involutions is skipped. The draws do not depend on the order in
    which the program lists shapes, involutions or maps: each list is
    enumerated in full and sorted by the digest of its data first.

    The classes are drawn once, from ``CLASS_SEED``, and are the same for
    every seed, because the cost of ``factorize`` varies so much from one
    map to the next that two seeds' own draws differed by up to 19% in
    cost. The seed shuffles the instances within each round and gives
    every instance fresh object and morphism names (``relabel``), which
    changes the order of every search in the program but no verdict. So
    the answers of every seed are checked against the same reference.

    Every instance gets the five library queries. The docformat round
    trip runs only where both groupoids name their identities ``id(x)``,
    the text format's convention: ``loads(dumps(doc))`` adds an extra
    ``id(x)`` to a groupoid whose identities are named otherwise, as
    ``generators.z2_component`` names them. How many of the other
    instances fail the round trip is reported as ``roundtrip_defects``.
    """

    name = "catalog-mix"
    rounds = 3
    trace_instances = 20
    max_objects = 3
    max_morphisms = 6  # per groupoid: the workload's stated input size
    library_queries = ("injective_classify", "projective_classify", "pi_of",
                       "find_right_homotopy", "factorize")

    def __init__(self, seed: int):
        self.seed = seed
        classes, rounds = self._classes(random.Random(CLASS_SEED))
        self.classes_digest = digest([
            [equivariant_data(f), functor_data(a.map), functor_data(b.map)]
            for f, a, b in classes
        ])
        rng = random.Random(seed)
        order = []
        for lo, hi in rounds:
            ks = list(range(lo, hi))
            rng.shuffle(ks)
            order += ks
        self.pool = [relabel_instance(instance, rng) for instance in classes]
        self.ops = [
            (k, query)
            for k in order
            for query in self.library_queries
            + (("docformat_roundtrip",) if self._text_format_names(self.pool[k][0]) else ())
        ]
        self.trace_ops = sum(1 for k, _ in self.ops if k in order[:self.trace_instances])
        self.inputs_digest = digest([
            [equivariant_data(f), functor_data(a.map), functor_data(b.map)]
            for f, a, b in (self.pool[k] for k in order)
        ])
        self.roundtrip_defects = sum(
            1 for f, a, b in self.pool
            if not self._text_format_names(f)
            and not self._roundtrip_equal(f, self._roundtrip(f))
        )
        self.answers: dict[tuple[int, str], str] = {}
        self.reference_error: str | None = None

    def load_reference(self) -> None:
        ref = read_reference("catalog-mix.json")
        if ref is None:
            return
        ref = json.loads(ref)
        self.reference = ref["answers"]
        if ref["classes_digest"] != self.classes_digest:
            # The committed answers are for other instances: every op fails
            # until the reference is rewritten on purpose with make_reference.py.
            self.reference_error = "instances differ from perfbench/reference/catalog-mix.json"

    def _classes(self, rng: random.Random) -> tuple[list, list[tuple[int, int]]]:
        """The instances ``(f, a, b)`` and the index range of each round."""
        shapes = sorted(
            (
                (G, sorted(generators.involutions_of(G), key=lambda F: digest(functor_data(F))))
                for G in generators.plain_catalog(self.max_objects, vertex_z2=True)
                if G.n_objects and G.n_morphisms <= self.max_morphisms
            ),
            key=lambda shape: digest(groupoid_data(shape[0])),
        )
        pairs = [(x, y) for x in shapes for y in shapes]
        classes, rounds = [], []
        for _ in range(self.rounds):
            lo = len(classes)
            rng.shuffle(pairs)
            for (GX, invs_x), (GY, invs_y) in pairs:
                X = equivariant.InvolutiveGroupoid(GX, rng.choice(invs_x))
                Y = equivariant.InvolutiveGroupoid(GY, rng.choice(invs_y))
                maps = sorted(generators.equivariant_functors(X, Y),
                              key=lambda F: digest(functor_data(F.map)))
                if maps:
                    classes.append((rng.choice(maps), rng.choice(maps), rng.choice(maps)))
            rounds.append((lo, len(classes)))
        return classes, rounds

    @staticmethod
    def _text_format_names(f) -> bool:
        return all(G.identity[x] == f"id({x})"
                   for G in (f.dom.base, f.cod.base) for x in G.objects)

    @staticmethod
    def _roundtrip(f):
        doc = docformat.Document(
            groupoids={"A": f.dom.base, "B": f.cod.base},
            involutives={"X": f.dom, "Y": f.cod},
            functors={"f": f},
            functor_sig={"f": ("X", "Y")},
        )
        return docformat.loads(docformat.dumps(doc))

    @staticmethod
    def _roundtrip_equal(f, doc) -> bool:
        return (
            equivariant_data(doc.functors["f"]) == equivariant_data(f)
            and doc.groupoids["A"] == f.dom.base and doc.groupoids["B"] == f.cod.base
        )

    def run(self, i: int):
        k, query = self.ops[i % len(self.ops)]
        f, a, b = self.pool[k]
        budget = Budget()
        if query == "injective_classify":
            out = lifting.injective_classify(f, budget)
        elif query == "projective_classify":
            out = lifting.projective_classify(f, budget)
        elif query == "pi_of":
            out = pi.pi_of(equivariant.terminal_map(f.cod), f, budget)
        elif query == "find_right_homotopy":
            out = homotopy.find_right_homotopy(a, b, budget=budget)
        elif query == "factorize":
            out = lifting.factorize(f, lifting.StructureTag.INJECTIVE, budget=budget)
        else:
            out = self._roundtrip(f)
        return out, budget.used

    def answer(self, f, query: str, out) -> dict:
        """The verdict-level content of an answer, as digested and compared."""
        if query in ("injective_classify", "projective_classify"):
            return out.to_dict()
        if query == "pi_of":
            return {
                "objects": out.dom_pi.base.n_objects,
                "morphisms": out.dom_pi.base.n_morphisms,
                "fixed_points": len(out.dom_pi.fixed_objects()),
            }
        if query == "find_right_homotopy":
            return {"found": out is not None}
        if query == "factorize":
            inj = lifting.StructureTag.INJECTIVE
            j, q = out.j, out.q
            return {
                "j_trivial_cofibration": lifting.is_trivial_cofibration(j, inj),
                "q_fibration": lifting.has_rlp(q, lifting.generating_trivial_cofibrations(inj)).ok,
                "q_after_j_is_f": all(
                    q.on_obj(j.on_obj(x)) == f.on_obj(x) for x in f.dom.base.objects
                ) and all(q.on_mor(j.on_mor(m)) == f.on_mor(m) for m in f.dom.base.morphisms),
            }
        return {"equal": self._roundtrip_equal(f, out)}

    def check(self, i: int, answer) -> str | None:
        out, _ = answer
        k, query = self.ops[i % len(self.ops)]
        f, a, b = self.pool[k]
        if self.reference_error:
            return f"op {i}: {self.reference_error}"
        ans = self.answer(f, query, out)
        if query == "factorize" and not all(ans.values()):
            return f"op {i}: factorize is not a trivial cofibration followed by a fibration: {ans}"
        elif query == "find_right_homotopy" and a.map == b.map and not ans["found"]:
            return f"op {i}: find_right_homotopy: no homotopy from a map to itself"
        elif query == "docformat_roundtrip" and not ans["equal"]:
            return f"op {i}: docformat round trip changed the instance"
        d = digest(ans)[:12]
        if self.reference is not None:
            want = self.reference[k][query]
        else:
            want = self.answers.setdefault((k, query), d)
        if d != want:
            return f"op {i} ({query}): answer {ans} differs from the reference"
        return None

    @staticmethod
    def units(answer) -> int:
        return answer[1]

    def info(self) -> dict:
        return {"roundtrip_defects": self.roundtrip_defects}


WORKLOADS = {w.name: w for w in (ReproduceB2, UniverseB3, CatalogMix)}
