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

The shape of every line (its names and the fixed tokens between them) is
one entry of ``_SHAPES``, keyed by section kind and head, and one code
path checks each line against it. One document defines each name at most
once per section kind, a line holds no tokens past its shape, and every
syntax error names its line (``line N: ...``).

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


# The shape of every line, keyed by (section kind, head): the tokens after
# the head, where a one-letter token stands for a name and any other token
# must appear as written. The kind None holds the section headers, which
# may open a section anywhere; "..." is any number of names.
_SHAPES = {
    (None, "groupoid"): "N",
    (None, "involutive"): "N",
    (None, "functor"): "N : D -> C",
    (None, "square"): "N",
    ("groupoid", "objects"): "...",
    ("groupoid", "morphism"): "m : x -> y",
    ("groupoid", "compose"): "g . f = h",
    ("groupoid", "identity"): "x = m",
    ("groupoid", "inverse"): "m = w",
    ("involutive", "base"): "G",
    ("involutive", "object"): "x -> y",
    ("involutive", "morphism"): "m -> w",
    ("functor", "object"): "x -> y",
    ("functor", "morphism"): "m -> w",
    **{("square", corner): "F" for corner in ("left", "right", "top", "bottom")},
}


def _names(toks: list[str], shape: str) -> tuple[str, ...] | None:
    """The names on a line of this shape, or None if a fixed token is wrong
    or the line is too long. Tokens are read left to right; a line that
    ends before its shape does raises IndexError."""
    if shape == "...":
        return tuple(toks[1:])
    want = shape.split()
    names = []
    for i, w in enumerate(want, 1):
        if w.isalpha():
            names.append(toks[i])
        elif toks[i] != w:
            return None
    return tuple(names) if len(toks) == len(want) + 1 else None


@dataclass
class _Section:
    """A section as written: its kind, the names on its header (a
    functor's are its name, domain and codomain) and, for each head, the
    names on each of its entry lines in document order."""
    kind: str
    header: tuple[str, ...]
    lines: dict[str, list[tuple[str, ...]]] = field(default_factory=dict)

    def rows(self, head: str) -> list[tuple[str, ...]]:
        return self.lines.get(head, [])


def _groupoid(name: str, sec: _Section) -> Groupoid:
    objects = list(dict.fromkeys(x for row in sec.rows("objects") for x in row))
    morphisms = {m: (s, t) for m, s, t in sec.rows("morphism")}
    for m, (s, t) in morphisms.items():
        if s not in objects or t not in objects:
            raise MalformedDocument(f"groupoid {name}: morphism {m} references unknown object")
    declared = dict(sec.rows("identity"))
    for x in declared:
        if x not in objects:
            raise MalformedDocument(f"groupoid {name}: identity entry for unknown object {x}")
    identity = {}
    for x in objects:
        mid = declared.get(x, f"id({x})")
        if mid in morphisms and morphisms[mid] != (x, x):
            raise MalformedDocument(f"groupoid {name}: {mid} is not a loop at {x}")
        morphisms.setdefault(mid, (x, x))
        identity[x] = mid
    inverse = dict(sec.rows("inverse"))
    for m, w in inverse.items():
        if m not in morphisms or w not in morphisms:
            raise MalformedDocument(f"groupoid {name}: inverse entry {m} = {w} "
                                    "references unknown morphism")
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
    compose = {(g, f): h for g, f, h in sec.rows("compose")}
    for (g, f), h in compose.items():
        for m in (g, f, h):
            if m not in morphisms:
                raise MalformedDocument(f"groupoid {name}: compose entry references "
                                        f"unknown morphism {m}")
        if morphisms[f][1] != morphisms[g][0]:
            raise MalformedDocument(f"groupoid {name}: compose entry {g} . {f} "
                                    "is not a composable pair")
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
                raise MalformedDocument(f"groupoid {name}: ambiguous composition for "
                                        f"({g}, {f}); declare it with a compose line")
    return Groupoid(tuple(objects), morphisms, identity, compose, inverse)


def _close_inverses(mor_map: dict, dom: Groupoid, cod: Groupoid) -> None:
    """Map inv(m) to inv(F(m)) for every mapped m, until nothing changes."""
    changed = True
    while changed:
        changed = False
        for m in dom.mor_ids():
            if m in mor_map and dom.inv(m) not in mor_map and mor_map[m] in cod.inverse:
                mor_map[dom.inv(m)] = cod.inv(mor_map[m])
                changed = True


def _complete_involution(name: str, G: Groupoid, omap: dict, mmap: dict) -> Functor:
    obj_map = dict(omap)
    for x in G.objects:
        obj_map.setdefault(x, x)
        if obj_map[x] not in G.identity:
            raise MalformedDocument(f"involutive {name}: image of {x} is not an object")
    mor_map = dict(mmap)
    # before the identity defaults, unlike a functor: on law-breaking input
    # the order decides which image an identity gets
    _close_inverses(mor_map, G, G)
    for x in G.objects:
        mor_map.setdefault(G.ident(x), G.ident(obj_map[x]))
    for m in G.mor_ids():
        if m not in mor_map:
            s, t = G.morphisms[m]
            if obj_map[s] == s and obj_map[t] == t:
                mor_map.setdefault(m, m)
            else:
                raise MalformedDocument(f"involutive {name}: no image declared for morphism {m}")
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
    _close_inverses(mor_map, dom, cod)
    mids = dom.mor_ids()
    missing = [m for m in mids if m not in mor_map]
    if missing:
        raise MalformedDocument(f"functor {name}: no image for morphisms {missing}")
    for m in mids:
        if mor_map[m] not in cod.morphisms:
            raise MalformedDocument(f"functor {name}: image of {m} is not a morphism")
    return Functor(dom, cod, obj_map, mor_map)


def loads(text: str) -> Document:
    sections: dict[tuple[str, str], _Section] = {}  # by (kind, name)
    current: _Section | None = None
    for lineno, raw in enumerate(text.splitlines(), 1):
        toks = raw.split("#", 1)[0].split()
        if not toks:
            continue
        head = toks[0]
        opens = (None, head) in _SHAPES
        if not opens and current is None:
            raise MalformedDocument(f"line {lineno}: content outside any section")
        shape = _SHAPES.get((None, head) if opens else (current.kind, head))
        if shape is None:
            raise MalformedDocument(f"line {lineno}: unknown entry {head!r}")
        try:
            names = _names(toks, shape)
        except IndexError as exc:
            raise MalformedDocument(f"line {lineno}: truncated entry") from exc
        if names is None:
            raise MalformedDocument(
                f"line {lineno}: {head} header must be '{head} {shape}'" if opens
                else f"line {lineno}: bad {head} line")
        if not opens:
            current.lines.setdefault(head, []).append(names)
        elif (head, names[0]) in sections:
            raise MalformedDocument(f"line {lineno}: {head} {names[0]} is already defined")
        else:
            current = sections[(head, names[0])] = _Section(head, names)

    # materialize in order: groupoids, involutives, functors, squares
    doc = Document()
    for (kind, name), sec in sections.items():
        if kind == "groupoid":
            doc.groupoids[name] = _groupoid(name, sec)
    for (kind, name), sec in sections.items():
        if kind == "involutive":
            base_name = sec.rows("base")[-1][0] if sec.rows("base") else None
            base = doc.groupoids.get(base_name)
            if base is None:
                raise MalformedDocument(f"involutive {name}: unknown base {base_name!r}")
            inv = _complete_involution(
                name, base, dict(sec.rows("object")), dict(sec.rows("morphism")))
            doc.involutives[name] = InvolutiveGroupoid(base, inv)
    for (kind, name), sec in sections.items():
        if kind == "functor":
            _, dname, cname = sec.header
            dom, cod = (doc.involutives.get(n, doc.groupoids.get(n)) for n in (dname, cname))
            for n, end in ((dname, dom), (cname, cod)):
                if end is None:
                    raise MalformedDocument(f"functor {name}: unknown groupoid {n!r}")
            if isinstance(dom, Groupoid) != isinstance(cod, Groupoid):
                raise MalformedDocument(f"functor {name}: domain and codomain must both "
                                        "be involutive or both plain")
            omap, mmap = dict(sec.rows("object")), dict(sec.rows("morphism"))
            if isinstance(dom, Groupoid):
                doc.functors[name] = _complete_functor(name, dom, cod, omap, mmap)
            else:
                F = _complete_functor(name, dom.base, cod.base, omap, mmap)
                doc.functors[name] = EquivariantFunctor(dom, cod, F)
            doc.functor_sig[name] = (dname, cname)
    for (kind, name), sec in sections.items():
        if kind == "square":
            doc.squares[name] = {head: rows[-1][0] for head, rows in sec.lines.items()}
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


def _map_lines(G: Groupoid, F: Functor) -> list[str]:
    """The object and morphism lines of a map on G, as an involutive or a
    functor section writes them."""
    return ([f"  object {_token(x)} -> {_token(F.obj_map[x])}" for x in G.objects]
            + [f"  morphism {_token(m)} -> {_token(F.mor_map[m])}" for m in G.mor_ids()] + [""])


def dumps(doc: Document) -> str:
    """Serialize a document; load(dumps(d)) reproduces the structures.
    An object or morphism ID that is empty or contains whitespace or
    ``#`` cannot be written and raises ``MalformedDocument``."""
    lines: list[str] = []
    written: list[tuple[str, object]] = []  # (section name, structure), in text order

    def name_of(X) -> str | None:
        return next((n for n, Y in written if Y is X or Y == X), None)

    for name, G in doc.groupoids.items():
        lines += _groupoid_lines(name, G)
        written.append((name, G))
    for name, X in doc.involutives.items():
        base_name = name_of(X.base)
        if base_name is None:
            base_name = f"{name}.base"
            lines += _groupoid_lines(base_name, X.base)
            written.append((base_name, X.base))
        lines += [f"involutive {name}", f"  base {base_name}", *_map_lines(X.base, X.involution)]
        written.append((name, X))
    for name, F in doc.functors.items():
        dname, cname = doc.functor_sig.get(name) or (name_of(F.dom), name_of(F.cod))
        if dname is None or cname is None:
            raise MalformedDocument(f"cannot write functor {name}: its domain or codomain "
                                    "is not a section of the document")
        lines.append(f"functor {name} : {dname} -> {cname}")
        fmap = F.map if isinstance(F, EquivariantFunctor) else F
        lines += _map_lines(fmap.dom, fmap)
    for name, sq in doc.squares.items():
        lines.append(f"square {name}")
        for k in ("left", "right", "top", "bottom"):
            if k in sq:
                lines.append(f"  {k} {sq[k]}")
        lines.append("")
    return "\n".join(lines)
