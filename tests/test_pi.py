"""Dependent products: the explicit construction and its adjunction."""

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import invgpd

from invgpd.core import Functor, classify_functor, find_isomorphism
from invgpd.equivariant import (
    REGISTRY,
    EquivariantFunctor,
    eq_identity,
    terminal_map,
    validate_equivariant,
    validate_involutive,
)
from invgpd.errors import NotAFibration
from invgpd.generators import (
    equivariant_functors,
    random_equivariant,
    random_involutive,
    random_isofibration,
)
from invgpd.lifting import projective_classify
from invgpd.pi import (
    adjunction_backward,
    adjunction_forward,
    enumerate_slice_homs,
    lift_independent,
    pi_of,
    pullback_along,
)
from invgpd.universe import funext_instance


def test_pi_of_funext_instance_counts():
    g, f = funext_instance()
    bundle = pi_of(g, f)
    assert bundle.dom_pi.base.n_objects == 4
    assert bundle.dom_pi.base.n_morphisms == 16
    assert len(bundle.dom_pi.fixed_objects()) == 2


def test_pi_requires_a_fibration():
    one = REGISTRY.shape("1!")
    I = REGISTRY.shape("I")
    incl = EquivariantFunctor(one, I, Functor(one.base, I.base, {"*": "0"}, {"id(*)": "id(0)"}))
    with pytest.raises(NotAFibration):
        pi_of(incl, eq_identity(one))


def test_pi_of_identity_f_is_base():
    g, _ = funext_instance()
    bundle = pi_of(g, eq_identity(g.dom))
    assert find_isomorphism(bundle.dom_pi.base, g.cod.base) is not None


def test_pi_along_identity_is_dom_f():
    g, f = funext_instance()
    bundle = pi_of(eq_identity(g.dom), f)
    assert find_isomorphism(bundle.dom_pi.base, f.dom.base) is not None


def test_lift_independence_of_composition():
    g, f = funext_instance()
    assert lift_independent(pi_of(g, f))
    # also on an instance with non-trivial base morphisms
    si_cover = None
    from invgpd.universe import double_cover_of_interval
    cover = double_cover_of_interval()
    bundle = pi_of(cover, eq_identity(cover.dom))
    assert lift_independent(bundle)


def test_pi_preserves_fibrations():
    g, f = funext_instance()
    bundle = pi_of(g, f)
    assert projective_classify(bundle.projection).fibration
    cover = __import__("invgpd.universe", fromlist=["double_cover_of_interval"]).double_cover_of_interval()
    b2 = pi_of(cover, eq_identity(cover.dom))
    assert projective_classify(b2.projection).fibration


def adjunction_roundtrip(g, f, h) -> tuple[int, int]:
    bundle = pi_of(g, f)
    P, prA, _ = pullback_along(g, h)
    homs_A = enumerate_slice_homs(prA, f)
    homs_B = enumerate_slice_homs(h, bundle.projection)
    assert len(homs_A) == len(homs_B)
    for v in homs_A:
        k = adjunction_forward(bundle, h, v)
        v2 = adjunction_backward(bundle, h, k)
        assert v2.map.obj_map == v.map.obj_map and v2.map.mor_map == v.map.mor_map
    for k in homs_B:
        v = adjunction_backward(bundle, h, k)
        k2 = adjunction_forward(bundle, h, v)
        assert k2.map.obj_map == k.map.obj_map and k2.map.mor_map == k.map.mor_map
    return len(homs_A), len(homs_B)


def test_adjunction_on_funext_instance():
    g, f = funext_instance()
    h = terminal_map(REGISTRY.shape("Icheck"))
    nA, nB = adjunction_roundtrip(g, f, h)
    assert nA == nB == 4


def test_adjunction_with_fixed_point_domain():
    g, f = funext_instance()
    # maps out of nabla land in the fixed part of the dependent product
    h = terminal_map(REGISTRY.shape("nabla"))
    nA, nB = adjunction_roundtrip(g, f, h)
    assert nA == nB == 8


def test_adjunction_with_empty_hom_sets():
    # an empty total space: no sections, hence empty hom-sets on both sides
    g, _ = funext_instance()
    zero = REGISTRY.shape("0!")
    f_empty = EquivariantFunctor(zero, g.dom, Functor(zero.base, g.dom.base, {}, {}))
    h = terminal_map(REGISTRY.shape("Icheck"))
    nA, nB = adjunction_roundtrip(g, f_empty, h)
    assert nA == nB == 0


def test_adjunction_naturality_in_h():
    """Precomposing h along a slice morphism commutes with transposition."""
    g, f = funext_instance()
    bundle = pi_of(g, f)
    ic, s1 = REGISTRY.shape("Icheck"), REGISTRY.shape("S1")
    h = terminal_map(ic)
    h2 = terminal_map(s1)
    # a map w: S1 -> Icheck over 1!
    ws = equivariant_functors(s1, ic)
    assert ws
    w = ws[0]
    P, prA, prD = pullback_along(g, h)
    P2, prA2, prD2 = pullback_along(g, h2)
    from invgpd.core import compose_functors, pair_id
    for v in enumerate_slice_homs(prA, f):
        k = adjunction_forward(bundle, h, v)
        # naturality: transpose(v ∘ (id x w)) = transpose(v) ∘ w
        vw_obj = {}
        vw_mor = {}
        for o in P2.base.objects:
            z, x = prA2.on_obj(o), prD2.on_obj(o)
            vw_obj[o] = v.map.obj_map[pair_id(z, w.on_obj(x))]
        for m in P2.base.morphisms:
            t, u = prA2.on_mor(m), prD2.on_mor(m)
            vw_mor[m] = v.map.mor_map[pair_id(t, w.on_mor(u))]
        vw = EquivariantFunctor(P2, f.dom, Functor(P2.base, f.dom.base, vw_obj, vw_mor))
        k2 = adjunction_forward(bundle, h2, vw)
        krestr = compose_functors(k.map, w.map)
        assert k2.map.obj_map == krestr.obj_map
        assert k2.map.mor_map == krestr.mor_map


def test_adjunction_seeded_instances():
    """Seeded random (g, f, h) triples: mutually inverse transposes and
    equal hom-set cardinalities."""
    rng = random.Random(31)
    done = 0
    nonzero = 0
    while done < 15:
        g = random_isofibration(rng, max_objects=2)
        C = random_involutive(rng, max_objects=2, vertex_z2=False)
        D = random_involutive(rng, max_objects=2, vertex_z2=False)
        f = random_equivariant(rng, C, g.dom)
        h = random_equivariant(rng, D, g.cod)
        if f is None or h is None:
            continue
        nA, nB = adjunction_roundtrip(g, f, h)
        nonzero += 1 if nA else 0
        done += 1
    assert nonzero >= 1


def test_pi_validates_structure():
    # the constructed groupoid passes full validation (associativity included)
    g, f = funext_instance()
    bundle = pi_of(g, f, check=True)
    assert validate_involutive(bundle.dom_pi) == []
    assert validate_equivariant(bundle.projection) == []


BROKEN_PI = """
import sys
from invgpd import pi
from invgpd.errors import InvariantViolated
from invgpd.universe import funext_instance

pi.{name} = lambda *args: ()  # a key no section or transport has
try:
    pi.pi_of(*funext_instance())
except InvariantViolated:
    print(sys.flags.optimize, "InvariantViolated")
"""


@pytest.mark.parametrize("broken", ["_restrict", "_transport_key"])
def test_pi_of_checks_survive_optimisation(broken):
    """A transport end or transport that matches nothing raises
    InvariantViolated under python -O, where asserts would not run."""
    src = str(Path(invgpd.__file__).resolve().parents[1])
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-O", "-c", BROKEN_PI.replace("{name}", broken)],
                          env=env, capture_output=True, text=True)
    assert proc.stdout.split() == ["1", "InvariantViolated"], proc.stderr
