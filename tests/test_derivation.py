import random
from fractions import Fraction

import pytest

from conezeta import derivation
from conezeta.geometry import Cone, SimplicialCone
from conezeta.derivation import (DerivedSequence, build_derived_sequences,
                                 primitive_rescale)
from conezeta.linalg import identity, mat_rank


def random_instance(rnd, n):
    """Random full-dimensional pointed cone in the positive orthant with
    up to 4 forms positive on its interior."""
    while True:
        gens = [tuple(rnd.randint(0, 3) for _ in range(n)) for _ in range(n)]
        if any(all(x == 0 for x in g) for g in gens):
            continue
        if any(all(x == 0 for x in col) for col in zip(*gens)):
            continue
        if mat_rank([list(g) for g in gens]) == n:
            break
    nf = rnd.randint(1, 4)
    forms = []
    while len(forms) < nf:
        f = [rnd.randint(0, 2) for _ in range(n)]
        if any(f):
            forms.append(f)
    return SimplicialCone(gens), forms


class TestBuildDerivedSequences:
    def test_validator_and_sign_pattern_on_random_inputs(self):
        rnd = random.Random(7)
        count = 0
        for _ in range(50):
            n = rnd.randint(1, 3)
            C, forms = random_instance(rnd, n)
            branches = build_derived_sequences(C, forms)
            assert branches
            for ds in branches:
                assert ds.validate() == []
                assert ds.sign_pattern_ok()
                count += 1
        assert count >= 50

    def test_union_and_disjoint_interiors(self):
        rnd = random.Random(11)
        for _ in range(10):
            C, forms = random_instance(rnd, 2)
            branches = build_derived_sequences(C, forms)
            cones = [SimplicialCone(ds.generators) for ds in branches]
            for _ in range(80):
                x = (rnd.randint(-3, 6), rnd.randint(-3, 6))
                hits = sum(1 for c in cones if c.contains(x))
                int_hits = sum(1 for c in cones if c.interior_contains(x))
                if C.interior_contains(x):
                    assert hits >= 1
                if not C.contains(x):
                    assert hits == 0
                assert int_hits <= 1

    def test_integer_forms_stay_integers_at_every_level(self, monkeypatch):
        # coordinates in an integer span basis are integers, so the forms
        # and generators of every recursive call are ints, not Fractions
        calls = []
        inner = derivation._derive_branches

        def recording(gens, forms):
            calls.append({type(x) for v in list(gens) + list(forms)
                          for x in v})
            return inner(gens, forms)

        monkeypatch.setattr(derivation, "_derive_branches", recording)
        branches = build_derived_sequences(SimplicialCone(identity(3)),
                                           [(1, 2, 0), (0, 1, 1), (1, 0, 3)])
        assert branches and len(calls) >= 4
        assert all(types == {int} for types in calls), calls

    def test_rejects_vanishing_form(self):
        C = SimplicialCone([(1, 0), (0, 1)])
        with pytest.raises(ValueError):
            build_derived_sequences(C, [(0, 0)])

    def test_validate_reports_dependent_generators(self):
        ds = DerivedSequence([(1, 0), (2, 0)], [[(1, 1)], [(1,)]])
        assert ds.validate() == ["generators are linearly dependent"]
        assert DerivedSequence([(1, 0), (0, 1)],
                               [[(1, 1)], [(1,)]]).validate() == []


class TestPrimitiveRescale:
    def test_leading_entries_become_one(self):
        rnd = random.Random(3)
        for _ in range(25):
            n = rnd.randint(1, 3)
            C, forms = random_instance(rnd, n)
            for ds in build_derived_sequences(C, forms):
                e, r = primitive_rescale(ds)
                assert all(x >= 1 for x in e)
                for i, level in enumerate(r.levels):
                    for v in level:
                        lead = next((x for x in v if x != 0), None)
                        if lead is not None:
                            assert lead == 1
                            assert all(Fraction(x).denominator == 1
                                       for x in v)
                assert r.validate() == []

    def test_rescaled_generators_kept_unnormalized(self):
        # the rescale multiplies generators by integers; the derived sequence
        # must keep those multiples for the later change of coordinates
        ds = build_derived_sequences(
            SimplicialCone([(1, 0), (0, 1)]),
            [(1, 1), (1, 3)])[0]
        e, r = primitive_rescale(ds)
        for scale, g_old, g_new in zip(e, ds.generators, r.generators):
            assert tuple(Fraction(scale) * Fraction(x) for x in g_old) == \
                tuple(Fraction(x) for x in g_new)
