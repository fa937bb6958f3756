"""Text document format for groupoids, involutions, functors and squares.

A document is UTF-8 text made of sections::

    groupoid I
      objects 0 1
      morphism phi : 0 -> 1
      # identity x = m        an identity not named id(x)
      # compose g . f = h     sparse entries, completed by the loader
      # inverse m = w         explicit inverses (defaults are created)

    involutive Icheck
      base I
      object 0 -> 1
      morphism phi -> inv(phi)
      # unmapped objects/morphisms default to the identity assignment
      # where that is well-typed; inverses of mapped morphisms are derived

    functor iprime : Icheck -> nabla
      object 0 -> 0
      morphism phi -> phi
      # identities and inverses are derived

    square no-fixed-point-lift
      left iprime
      right icheck_to_point
      top id_icheck
      bottom nabla_to_point

A document's sections name only what the document defines: the standard
shapes (``Icheck``, ``nabla`` and so on) live in ``equivariant.REGISTRY``,
not in a text document, so a user document that needs one defines its
own. The command line merges a ``--file`` document over the bundled one
(``cli.bundled_document``, the registry under its own names); inside the
user's document only a square can name a bundled map. The merged
document must pass ``validate``, or the command exits 2 as on malformed
input.

Every image an ``involutive`` or ``functor`` section gives (or derives)
must be an object or morphism of its codomain; a name that is not is a
structural error, rejected at load time.

Identities are created automatically as ``id(x)`` unless an explicit
``identity`` line names one (which ``dumps`` writes only for identities
not named ``id(x)``), inverses of declared morphisms as ``inv(m)``
unless an explicit ``inverse`` line names one.
Sparse composition tables are completed by the identity and inverse laws
plus singleton hom-sets; remaining composable pairs are an error
("ambiguous composition"). A compose line on a pair that is not
composable (``tgt(f) != src(g)``) is a structural error like a line
naming an unknown morphism, and is rejected: the composition table must
be defined exactly on the composable pairs, which the functor search
relies on. Loading never rejects a structurally total but law-breaking
groupoid: ``validate`` reports those as diagnostics.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .core import Functor, Groupoid, validate_functor, validate_groupoid
from .equivariant import (
    EquivariantFunctor,
    InvolutiveGroupoid,
    validate_equivariant,
    validate_involutive,
)
from .errors import MalformedDocument


@dataclass
class Document:
    groupoids: dict[str, Groupoid] = field(default_factory=dict)
    involutives: dict[str, InvolutiveGroupoid] = field(default_factory=dict)
    functors: dict[str, object] = field(default_factory=dict)  # Functor | EquivariantFunctor
    squares: dict[str, dict[str, str]] = field(default_factory=dict)
    functor_sig: dict[str, tuple[str, str]] = field(default_factory=dict)

    def diagnostics(self) -> dict[str, list[str]]:
        out: dict[str, list[str]] = {}
        for name, G in self.groupoids.items():
            probs = validate_groupoid(G)
            if probs:
                out[f"groupoid {name}"] = probs
        for name, X in self.involutives.items():
            probs = validate_involutive(X)
            if probs:
                out[f"involutive {name}"] = probs
        for name, F in self.functors.items():
            probs = (
                validate_equivariant(F)
                if isinstance(F, EquivariantFunctor)
                else validate_functor(F)
            )
            if probs:
                out[f"functor {name}"] = probs
        for name, sq in self.squares.items():
            missing = [k for k in ("left", "right", "top", "bottom") if sq.get(k) not in self.functors]
            if missing:
                out[f"square {name}"] = [f"unresolved {k}" for k in missing]
        return out


def _tokens(line: str) -> list[str]:
    line = line.split("#", 1)[0].strip()
    return line.split() if line else []


class _GroupoidDraft:
    def __init__(self, name):
        self.name = name
        self.objects: list[str] = []
        self.morphisms: dict[str, tuple[str, str]] = {}
        self.identity: dict[str, str] = {}
        self.compose: dict[tuple[str, str], str] = {}
        self.inverse: dict[str, str] = {}

    def build(self) -> Groupoid:
        objects = list(dict.fromkeys(self.objects))
        morphisms = dict(self.morphisms)
        for m, (s, t) in morphisms.items():
            if s not in objects or t not in objects:
                raise MalformedDocument(
                    f"groupoid {self.name}: morphism {m} references unknown object"
                )
        for x in self.identity:
            if x not in objects:
                raise MalformedDocument(
                    f"groupoid {self.name}: identity entry for unknown object {x}"
                )
        identity = {}
        for x in objects:
            mid = self.identity.get(x, f"id({x})")
            if mid in morphisms and morphisms[mid] != (x, x):
                raise MalformedDocument(f"groupoid {self.name}: {mid} is not a loop at {x}")
            morphisms.setdefault(mid, (x, x))
            identity[x] = mid
        inverse = dict(self.inverse)
        for m, w in inverse.items():
            if m not in morphisms or w not in morphisms:
                raise MalformedDocument(
                    f"groupoid {self.name}: inverse entry {m} = {w} references unknown morphism"
                )
        for x in objects:
            inverse.setdefault(identity[x], identity[x])
        for m, w in list(inverse.items()):  # symmetric closure of explicit pairs
            inverse.setdefault(w, m)
        for m in list(morphisms):  # default inverses for the rest
            if m not in inverse:
                w = f"inv({m})"
                s, t = morphisms[m]
                morphisms.setdefault(w, (t, s))
                inverse[m] = w
                inverse.setdefault(w, m)
        # sparse completion of the composition table
        hom: dict[tuple[str, str], list[str]] = {}
        for m, st in morphisms.items():
            hom.setdefault(st, []).append(m)
        compose = dict(self.compose)
        for (g, f), h in compose.items():
            for m in (g, f, h):
                if m not in morphisms:
                    raise MalformedDocument(
                        f"groupoid {self.name}: compose entry references unknown morphism {m}"
                    )
            if morphisms[f][1] != morphisms[g][0]:
                raise MalformedDocument(
                    f"groupoid {self.name}: compose entry {g} . {f} is not a composable pair"
                )
        for g, (gs, gt) in morphisms.items():
            for f, (fs, ft) in morphisms.items():
                if ft != gs or (g, f) in compose:
                    continue
                if f == identity.get(fs) and fs == ft:
                    compose[(g, f)] = g
                elif g == identity.get(gs) and gs == gt:
                    compose[(g, f)] = f
                elif inverse.get(f) == g and inverse.get(g) == f and fs == gt:
                    compose[(g, f)] = identity[fs]
        for g, (gs, gt) in morphisms.items():
            for f, (fs, ft) in morphisms.items():
                if ft != gs or (g, f) in compose:
                    continue
                candidates = hom.get((fs, gt), [])
                if len(candidates) == 1:
                    compose[(g, f)] = candidates[0]
                else:
                    raise MalformedDocument(
                        f"groupoid {self.name}: ambiguous composition for ({g}, {f}); "
                        "declare it with a compose line"
                    )
        return Groupoid(tuple(objects), morphisms, identity, compose, inverse)


def _complete_involution(name: str, G: Groupoid, omap: dict, mmap: dict) -> Functor:
    obj_map = dict(omap)
    for x in G.objects:
        obj_map.setdefault(x, x)
        if obj_map[x] not in G.identity:
            raise MalformedDocument(f"involutive {name}: image of {x} is not an object")
    mor_map = dict(mmap)
    changed = True
    while changed:
        changed = False
        for m in G.mor_ids():
            if m in mor_map:
                w, v = G.inv(m), mor_map[m]
                if w not in mor_map and v in G.inverse:
                    mor_map[w] = G.inv(v)
                    changed = True
    for x in G.objects:
        mor_map.setdefault(G.ident(x), G.ident(obj_map[x]))
    for m in G.mor_ids():
        if m not in mor_map:
            s, t = G.morphisms[m]
            if obj_map[s] == s and obj_map[t] == t:
                mor_map.setdefault(m, m)
            else:
                raise MalformedDocument(
                    f"involutive {name}: no image declared for morphism {m}"
                )
        if mor_map[m] not in G.morphisms:
            raise MalformedDocument(f"involutive {name}: image of {m} is not a morphism")
    return Functor(G, G, obj_map, mor_map)


def _complete_functor(name: str, dom: Groupoid, cod: Groupoid,
                      omap: dict, mmap: dict) -> Functor:
    obj_map = dict(omap)
    for x in dom.objects:
        if x not in obj_map:
            raise MalformedDocument(f"functor {name}: object {x} is not mapped")
        if obj_map[x] not in cod.identity:
            raise MalformedDocument(f"functor {name}: image of {x} is not an object")
    mor_map = dict(mmap)
    for x in dom.objects:
        mor_map.setdefault(dom.ident(x), cod.ident(obj_map[x]))
    changed = True
    while changed:
        changed = False
        for m in dom.mor_ids():
            if m in mor_map and dom.inv(m) not in mor_map and mor_map[m] in cod.inverse:
                mor_map[dom.inv(m)] = cod.inv(mor_map[m])
                changed = True
    mids = dom.mor_ids()
    missing = [m for m in mids if m not in mor_map]
    if missing:
        raise MalformedDocument(f"functor {name}: no image for morphisms {missing}")
    for m in mids:
        if mor_map[m] not in cod.morphisms:
            raise MalformedDocument(f"functor {name}: image of {m} is not a morphism")
    return Functor(dom, cod, obj_map, mor_map)


def loads(text: str) -> Document:
    doc = Document()
    drafts: list[tuple] = []
    current: tuple | None = None
    for lineno, raw in enumerate(text.splitlines(), 1):
        toks = _tokens(raw)
        if not toks:
            continue
        head = toks[0]
        try:
            if head == "groupoid":
                current = ("groupoid", _GroupoidDraft(toks[1]))
                drafts.append(current)
            elif head == "involutive":
                current = ("involutive", {"name": toks[1], "base": None, "obj": {}, "mor": {}})
                drafts.append(current)
            elif head == "functor":
                # functor NAME : DOM -> COD
                if toks[2] != ":" or toks[4] != "->":
                    raise MalformedDocument("functor header must be 'functor N : D -> C'")
                current = (
                    "functor",
                    {"name": toks[1], "dom": toks[3], "cod": toks[5], "obj": {}, "mor": {}},
                )
                drafts.append(current)
            elif head == "square":
                current = ("square", {"name": toks[1]})
                drafts.append(current)
            elif current is None:
                raise MalformedDocument(f"line {lineno}: content outside any section")
            elif current[0] == "groupoid":
                draft = current[1]
                if head == "objects":
                    draft.objects.extend(toks[1:])
                elif head == "morphism":
                    # morphism NAME : SRC -> TGT
                    if toks[2] != ":" or toks[4] != "->":
                        raise MalformedDocument(f"line {lineno}: bad morphism line")
                    draft.morphisms[toks[1]] = (toks[3], toks[5])
                elif head == "compose":
                    # compose G . F = H
                    if toks[2] != "." or toks[4] != "=":
                        raise MalformedDocument(f"line {lineno}: bad compose line")
                    draft.compose[(toks[1], toks[3])] = toks[5]
                elif head == "identity":
                    if toks[2] != "=":
                        raise MalformedDocument(f"line {lineno}: bad identity line")
                    draft.identity[toks[1]] = toks[3]
                elif head == "inverse":
                    if toks[2] != "=":
                        raise MalformedDocument(f"line {lineno}: bad inverse line")
                    draft.inverse[toks[1]] = toks[3]
                else:
                    raise MalformedDocument(f"line {lineno}: unknown entry {head!r}")
            elif current[0] == "involutive":
                data = current[1]
                if head == "base":
                    data["base"] = toks[1]
                elif head == "object":
                    if toks[2] != "->":
                        raise MalformedDocument(f"line {lineno}: bad object line")
                    data["obj"][toks[1]] = toks[3]
                elif head == "morphism":
                    if toks[2] != "->":
                        raise MalformedDocument(f"line {lineno}: bad morphism line")
                    data["mor"][toks[1]] = toks[3]
                else:
                    raise MalformedDocument(f"line {lineno}: unknown entry {head!r}")
            elif current[0] == "functor":
                data = current[1]
                if head == "object":
                    if toks[2] != "->":
                        raise MalformedDocument(f"line {lineno}: bad object line")
                    data["obj"][toks[1]] = toks[3]
                elif head == "morphism":
                    if toks[2] != "->":
                        raise MalformedDocument(f"line {lineno}: bad morphism line")
                    data["mor"][toks[1]] = toks[3]
                else:
                    raise MalformedDocument(f"line {lineno}: unknown entry {head!r}")
            elif current[0] == "square":
                data = current[1]
                if head in ("left", "right", "top", "bottom"):
                    data[head] = toks[1]
                else:
                    raise MalformedDocument(f"line {lineno}: unknown entry {head!r}")
        except IndexError as exc:
            raise MalformedDocument(f"line {lineno}: truncated entry") from exc

    # materialize in order: groupoids, involutives, functors, squares
    for kind, data in drafts:
        if kind == "groupoid":
            doc.groupoids[data.name] = data.build()
    for kind, data in drafts:
        if kind == "involutive":
            base = doc.groupoids.get(data["base"])
            if base is None:
                raise MalformedDocument(
                    f"involutive {data['name']}: unknown base {data['base']!r}"
                )
            inv = _complete_involution(data["name"], base, data["obj"], data["mor"])
            doc.involutives[data["name"]] = InvolutiveGroupoid(base, inv)
    for kind, data in drafts:
        if kind == "functor":
            name = data["name"]

            def resolve(n):
                if n in doc.involutives:
                    return doc.involutives[n], True
                if n in doc.groupoids:
                    return doc.groupoids[n], False
                raise MalformedDocument(f"functor {name}: unknown groupoid {n!r}")

            dom, dom_inv = resolve(data["dom"])
            cod, cod_inv = resolve(data["cod"])
            if dom_inv != cod_inv:
                raise MalformedDocument(
                    f"functor {name}: domain and codomain must both be involutive or both plain"
                )
            if dom_inv:
                F = _complete_functor(name, dom.base, cod.base, data["obj"], data["mor"])
                doc.functors[name] = EquivariantFunctor(dom, cod, F)
            else:
                doc.functors[name] = _complete_functor(name, dom, cod, data["obj"], data["mor"])
            doc.functor_sig[name] = (data["dom"], data["cod"])
    for kind, data in drafts:
        if kind == "square":
            name = data.pop("name")
            doc.squares[name] = dict(data)
    return doc


def load(path: str) -> Document:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise MalformedDocument(f"{path}: not UTF-8 text ({exc})") from None
    return loads(text)


def _token(i: str) -> str:
    """An object or morphism ID as one token of a line: ``loads`` splits
    lines at whitespace and drops what follows ``#``."""
    if i.split() != [i] or "#" in i:
        raise MalformedDocument(
            f"cannot write ID {i!r}: it is empty or contains whitespace or '#'")
    return i


def _groupoid_lines(name: str, G: Groupoid) -> list[str]:
    lines = [f"groupoid {name}", "  objects " + " ".join(map(_token, G.objects))]
    for m in G.mor_ids():
        s, t = G.morphisms[m]
        lines.append(f"  morphism {_token(m)} : {s} -> {t}")
    for x in G.objects:
        if G.ident(x) != f"id({x})":
            lines.append(f"  identity {x} = {G.ident(x)}")
    for (g, f), h in sorted(G.compose.items()):
        lines.append(f"  compose {g} . {f} = {h}")
    for m in G.mor_ids():
        lines.append(f"  inverse {m} = {G.inv(m)}")
    lines.append("")
    return lines


def dumps(doc: Document) -> str:
    """Serialize a document; load(dumps(d)) reproduces the structures.
    An object or morphism ID that is empty or contains whitespace or
    ``#`` cannot be written and raises ``MalformedDocument``."""
    lines: list[str] = []
    for name, G in doc.groupoids.items():
        lines += _groupoid_lines(name, G)
    for name, X in doc.involutives.items():
        base_name = next(
            (n for n, G in doc.groupoids.items() if G is X.base or G == X.base), None
        )
        if base_name is None:
            base_name = f"{name}.base"
            lines += _groupoid_lines(base_name, X.base)
        lines.append(f"involutive {name}")
        lines.append(f"  base {base_name}")
        for x in X.base.objects:
            lines.append(f"  object {x} -> {X.eta_obj(x)}")
        for m in X.base.mor_ids():
            lines.append(f"  morphism {m} -> {X.eta_mor(m)}")
        lines.append("")
    for name, F in doc.functors.items():
        dname, cname = doc.functor_sig.get(name, ("?", "?"))
        lines.append(f"functor {name} : {dname} -> {cname}")
        fmap = F.map if isinstance(F, EquivariantFunctor) else F
        for x in fmap.dom.objects:
            lines.append(f"  object {_token(x)} -> {_token(fmap.obj_map[x])}")
        for m in fmap.dom.mor_ids():
            lines.append(f"  morphism {_token(m)} -> {_token(fmap.mor_map[m])}")
        lines.append("")
    for name, sq in doc.squares.items():
        lines.append(f"square {name}")
        for k in ("left", "right", "top", "bottom"):
            if k in sq:
                lines.append(f"  {k} {sq[k]}")
        lines.append("")
    return "\n".join(lines)
