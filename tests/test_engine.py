"""Engine tests: translations, bundling, realization, quality bundling."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subparticle.codec import DEFAULT_ALPHABET, Alphabet, decode, encode
from subparticle.engine import (
    MAX_DIMS,
    AffineMap,
    InfiniteCoordinateError,
    IntermediateSubparticle,
    QualitySpec,
    RealizedVector,
    Ultrasubparticle,
    alternating_signs,
    apply_translation_times,
    bundle,
    make_lambda_translation,
    make_translation,
    quality_bundle,
    realize,
)
from subparticle.hyperreal import (
    BaseMismatchError,
    Hypernatural,
    Hyperreal,
    hyperfinite_constant_sum,
    lambda_for_code,
)

from oracles import iterate_translation, random_word

F = Fraction


def hr(terms, base=10):
    return Hyperreal(base, terms)


def zero(base=10):
    return Hyperreal.zero(base)


def one(base=10):
    return Hyperreal.one(base)


def eps(base=10):
    return Hyperreal.epsilon(base)


U4 = Ultrasubparticle(10, 4, naming=7, signs=(1, -1))


class TestUltrasubparticle:
    def test_coords_layout(self):
        assert U4.coords() == (hr({0: 7}), one(), eps(), -eps())

    def test_coords_are_built_once_and_take_no_part_in_equality(self):
        assert U4.coords() is U4.coords()
        twin = Ultrasubparticle(10, 4, naming=7, signs=(1, -1))
        assert twin == U4 and hash(twin) == hash(U4)
        assert repr(twin) == "Ultrasubparticle(base=10, dims=4, naming=7, signs=(1, -1))"

    def test_count_is_one(self):
        count = U4.count
        assert count.value == one()
        assert not count.is_infinite

    def test_default_signs_alternate(self):
        assert alternating_signs(8) == (1, -1, 1, -1, 1, -1)
        assert Ultrasubparticle(10, 8).signs == (1, -1, 1, -1, 1, -1)

    def test_validation(self):
        with pytest.raises(ValueError):
            Ultrasubparticle(10, 2)
        with pytest.raises(ValueError):
            Ultrasubparticle(10, 4, naming=-1)
        with pytest.raises(ValueError):
            Ultrasubparticle(10, 4, signs=(1,))
        for sign in (2, 1.0, True, F(1)):  # a sign is the int +1 or -1, not a value equal to one
            with pytest.raises(ValueError):
                Ultrasubparticle(10, 4, signs=(sign, -1))


class TestMakeTranslation:
    def test_unit_step_shape(self):
        step = make_translation(U4, 3)
        assert step.translation == (zero(), one(), eps(), zero())

    def test_count_slot_is_not_a_quality(self):
        with pytest.raises(IndexError):
            make_translation(U4, 2)
        with pytest.raises(IndexError):
            make_translation(U4, 5)

    def test_sign_carried_through(self):
        step = make_translation(U4, 4)
        assert step.translation == (zero(), one(), zero(), -eps())


class TestAffineMap:
    def test_naming_slot_must_be_zero(self):
        with pytest.raises(ValueError):
            AffineMap(10, (one(), zero(), zero(), zero()))

    def test_at_most_one_busy_quality_slot(self):
        with pytest.raises(ValueError):
            AffineMap(10, (zero(), one(), eps(), eps()))
        AffineMap(10, (zero(), zero(), zero(), zero()))  # identity allowed (count 1)

    def test_base_consistency(self):
        with pytest.raises(BaseMismatchError):
            AffineMap(10, (zero(2), one(2), eps(2)))


class TestApplyTranslationTimes:
    def test_three_applications_match_literal_iteration(self):
        step = make_translation(U4, 3)
        got = apply_translation_times(step, U4.coords(), 3)
        assert got == (hr({0: 7}), hr({0: 4}), hr({-1: 4}), -eps())
        assert got == iterate_translation(U4.coords(), step.translation, 3)

    def test_zero_times_is_identity(self):
        step = make_translation(U4, 3)
        assert apply_translation_times(step, U4.coords(), 0) == U4.coords()

    def test_infinite_count_reveals_count_and_code(self):
        lam = lambda_for_code(42, 10)
        step = make_translation(U4, 3)
        got = apply_translation_times(step, U4.coords(), lam.value - 1)
        assert got == (hr({0: 7}), hr({1: 42}), hr({0: 42}), -eps())

    def test_random_finite_counts_match_literal_iteration(self):
        rng = random.Random(31)
        for _ in range(200):
            dims = rng.randint(3, 8)
            particle = Ultrasubparticle(
                10,
                dims,
                naming=rng.randint(0, 9),
                signs=tuple(rng.choice((1, -1)) for _ in range(dims - 2)),
            )
            coord = rng.randint(3, dims)
            times = rng.randint(0, 1000)
            step = make_translation(particle, coord)
            assert apply_translation_times(step, particle.coords(), times) == iterate_translation(
                particle.coords(), step.translation, times
            )

    def test_dimension_mismatch(self):
        step = make_translation(U4, 3)
        with pytest.raises(ValueError):
            apply_translation_times(step, U4.coords()[:3], 1)

    def test_base_mismatch(self):
        step = make_translation(U4, 3)
        with pytest.raises(BaseMismatchError):
            apply_translation_times(step, U4.coords(), Hyperreal.one(2))

    @pytest.mark.parametrize("times", [0, 1, 5])
    def test_hypernatural_times_equals_the_same_int(self, times):
        step = make_translation(U4, 3)
        got = apply_translation_times(step, U4.coords(), Hypernatural.from_int(times, 10))
        assert got == apply_translation_times(step, U4.coords(), times)


class TestMakeLambdaTranslation:
    def test_finite_count_shape(self):
        step = make_lambda_translation(U4, 3, Hypernatural.from_int(5, 10))
        assert step.translation == (zero(), hr({0: 4}), hr({-1: 4}), zero())

    def test_one_application_equals_iterated_single_steps(self):
        lam = Hypernatural.from_int(7, 10)
        once = apply_translation_times(make_lambda_translation(U4, 3, lam), U4.coords(), 1)
        single = make_translation(U4, 3)
        assert once == iterate_translation(U4.coords(), single.translation, 6)

    def test_infinite_count_slot(self):
        lam = lambda_for_code(42, 10)
        step = make_lambda_translation(U4, 3, lam)
        assert step.translation[1] == hr({1: 42, 0: -1})  # 42H - 1

    def test_degenerate_count_rejected(self):
        with pytest.raises(ValueError):
            make_lambda_translation(U4, 3, lambda_for_code(0, 10))

    def test_coordinate_range(self):
        with pytest.raises(IndexError):
            make_lambda_translation(U4, 2, Hypernatural.from_int(2, 10))


class TestBundle:
    def test_infinite_count_example(self):
        particle = Ultrasubparticle(10, 5, naming=5, signs=(1, -1, 1))
        lam = lambda_for_code(42, 10)
        got = bundle(particle, 3, lam)
        assert got.coords == (hr({0: 5}), hr({1: 42}), hr({0: 42}), -eps(), eps())
        assert got.count == lam

    def test_count_one_leaves_particle_unchanged(self):
        got = bundle(U4, 3, Hypernatural.from_int(1, 10))
        assert got.coords == U4.coords()

    def test_finite_count_equals_iterated_translation(self):
        got = bundle(U4, 3, Hypernatural.from_int(5, 10))
        assert got.coords == (hr({0: 7}), hr({0: 5}), hr({-1: 5}), -eps())
        step = make_translation(U4, 3)
        assert got.coords == iterate_translation(U4.coords(), step.translation, 4)

    def test_bundled_coordinate_matches_constant_sum(self):
        lam = lambda_for_code(1234, 10)
        got = bundle(U4, 3, lam)
        assert got.coords[2] == hyperfinite_constant_sum(lam, eps().scale(U4.sign(3)))

    def test_degenerate_count_zeroes_count_and_coordinate(self):
        got = bundle(U4, 3, lambda_for_code(0, 10))
        assert got.coords == (hr({0: 7}), zero(), zero(), -eps())

    def test_base_mismatch(self):
        with pytest.raises(BaseMismatchError):
            bundle(U4, 3, lambda_for_code(1, 2))

    def test_untranslated_slots_are_passed_through(self):
        source = U4.coords()
        got = bundle(U4, 3, lambda_for_code(29, 10))
        assert got.coords[0] is source[0] and got.coords[3] is source[3]
        assert got.coords[2] == hr({0: 29})


class TestIntermediateSubparticle:
    def test_count_slot_must_be_natural_formed(self):
        with pytest.raises(ValueError):
            IntermediateSubparticle(10, (zero(), -one(), eps()))
        with pytest.raises(ValueError):
            IntermediateSubparticle(10, (zero(), eps(), eps()))

    def test_requires_three_coordinates(self):
        with pytest.raises(ValueError):
            IntermediateSubparticle(10, (zero(), one()))


class TestRealize:
    def test_bundled_example(self):
        particle = Ultrasubparticle(10, 5, naming=5, signs=(1, -1, 1))
        got = realize(bundle(particle, 3, lambda_for_code(42, 10)))
        assert got.coords == (F(0), F(0), F(42), F(0), F(0))

    def test_unbundled_particle_realizes_to_zero(self):
        particle = Ultrasubparticle(10, 6, naming=9)
        got = realize(IntermediateSubparticle(10, particle.coords()))
        assert got.coords == (F(0),) * 6

    def test_infinite_coordinate_is_reported_with_its_index(self):
        g = Hyperreal.generator(10)
        inter = IntermediateSubparticle(10, (zero(), g * g, hr({0: 42}), g))
        with pytest.raises(InfiniteCoordinateError) as info:
            realize(inter)
        assert info.value.index == 4

    def test_naming_and_count_suppressed_without_inspection(self):
        # the count slot may be infinite; realization must not look at it
        inter = IntermediateSubparticle(10, (hr({0: 123}), hr({1: 7}), hr({0: 7}), -eps()))
        assert realize(inter).coords == (F(0), F(0), F(7), F(0))

    def test_realized_vector_validates_suppressed_slots(self):
        with pytest.raises(ValueError):
            RealizedVector((F(1), F(0), F(0)))
        with pytest.raises(ValueError):
            RealizedVector((F(0), F(2), F(0)))

    def test_bare_coordinates_need_their_particle(self):
        with pytest.raises(TypeError, match="^realize needs an IntermediateSubparticle, got tuple$"):
            realize((zero(), one(), eps()))
        with pytest.raises(TypeError, match="got list$"):
            realize([zero(), one(), eps()])


class TestOneRealizationPath:
    """``realize`` of an ``IntermediateSubparticle`` and ``realize(coords, particle)``
    with coordinates of another length than the particle's take the same path:
    the subparticle's checks, then the standard part of every quality slot."""

    @staticmethod
    def both_paths(coords):
        # U4 has 4 coordinates, so a 3- or 5-coordinate vector is not its own
        assert len(coords) != U4.dims
        return (lambda: realize(IntermediateSubparticle(10, tuple(coords))), lambda: realize(coords, U4))

    def test_infinite_quality_slot_is_reported_by_its_index(self):
        g = Hyperreal.generator(10)
        for coords in ((g, g, g), (g, g, eps(), zero(), g)):
            for path in self.both_paths(coords):
                with pytest.raises(InfiniteCoordinateError) as info:
                    path()
                assert info.value.index == len(coords)
                assert str(info.value) == f"coordinate {len(coords)} is infinite and has no standard part"

    def test_an_int_entry_is_a_type_error_naming_int(self):
        for coords in ([0, 0, 5], [zero(), 0, eps()], [zero(), one(), eps(), eps(), 5]):
            for path in self.both_paths(coords):
                with pytest.raises(TypeError, match="^entries of an intermediate subparticle must be Hyperreal, got int$"):
                    path()

    def test_mixed_bases_are_refused(self):
        with pytest.raises(BaseMismatchError, match="has base 10, not 2"):
            realize(IntermediateSubparticle(2, (Hyperreal.zero(2), Hyperreal.zero(10), Hyperreal.epsilon(7) + 5)))
        for path in self.both_paths([zero(), one(), eps(2)]):
            with pytest.raises(BaseMismatchError, match="has base 2, not 10"):
                path()
        seven = (Hyperreal.zero(7), Hyperreal.one(7), Hyperreal.epsilon(7) + 5)
        assert realize(IntermediateSubparticle(7, seven)).coords == (0, 0, 5)

    def test_naming_and_count_slots_are_never_inspected(self, monkeypatch):
        st_, seen = Hyperreal.st, []

        def recording_st(self):
            seen.append(self)
            return st_(self)

        monkeypatch.setattr(Hyperreal, "st", recording_st)
        naming, count = Hyperreal.generator(10), hr({2: 3, 0: 1})  # both infinite
        qualities = (hr({0: 5, -1: 2}), -eps(), hr({0: F(-1, 3)}))
        for path in self.both_paths((naming, count) + qualities):
            seen.clear()
            assert path().coords == (0, 0, 5, 0, F(-1, 3))
            assert [id(entry) for entry in seen] == [id(entry) for entry in qualities]

    def test_too_many_coordinates_are_refused_before_realizing(self):
        coords = (zero(), one()) + (eps(),) * (MAX_DIMS - 1)
        with pytest.raises(ValueError, match=f"^an intermediate subparticle may have at most {MAX_DIMS} coordinates, got {MAX_DIMS + 1}$"):
            realize(coords, U4)


class TestQualityBundle:
    def make_particle(self):
        return Ultrasubparticle(10, 8, naming=3, signs=(1, 1, 1, -1, 1, -1))

    def spec_for(self, c1, c2, c3, tail_scale=None):
        return QualitySpec(
            entries=(
                (3, lambda_for_code(c1, 10)),
                (4, lambda_for_code(c2, 10)),
                (5, lambda_for_code(c3, 10)),
            ),
            tail_scale=tail_scale,
        )

    def test_three_quality_example(self):
        got = quality_bundle(self.make_particle(), self.spec_for(11, 22, 33))
        assert got.coords == (F(0), F(0), F(11), F(22), F(33), F(0), F(0), F(0))

    def test_empty_spec_realizes_to_zero_vector(self):
        got = quality_bundle(self.make_particle(), QualitySpec(entries=()))
        assert got.coords == (F(0),) * 8

    def test_tail_scale_changes_nothing_after_realization(self):
        plain = quality_bundle(self.make_particle(), self.spec_for(5, 6, 7))
        scaled = quality_bundle(self.make_particle(), self.spec_for(5, 6, 7, tail_scale=3))
        assert plain == scaled

    def test_tail_scale_builds_no_more_products(self, monkeypatch):
        particle = Ultrasubparticle(10, MAX_DIMS)
        multiply, products = Hyperreal.__mul__, []
        monkeypatch.setattr(Hyperreal, "__mul__", lambda self, other: products.append(other) or multiply(self, other))

        def products_for(tail_scale):
            products.clear()
            got = quality_bundle(particle, QualitySpec(((5, lambda_for_code(7, 10)),), tail_scale))
            assert got.coords[4] == 7 and not any(got.coords[:4] + got.coords[5:])
            return len(products)

        assert products_for(3) == products_for(None) == 1

    def test_duplicate_coordinate_rejected(self):
        with pytest.raises(ValueError):
            QualitySpec(entries=((3, lambda_for_code(1, 10)), (3, lambda_for_code(2, 10))))

    def test_coordinate_out_of_range(self):
        with pytest.raises(IndexError):
            QualitySpec(entries=((2, lambda_for_code(1, 10)),))
        with pytest.raises(IndexError):
            quality_bundle(self.make_particle(), QualitySpec(entries=((9, lambda_for_code(1, 10)),)))

    def test_sign_flows_through(self):
        particle = self.make_particle()  # coordinate 6 carries -eps
        got = quality_bundle(particle, QualitySpec(entries=((6, lambda_for_code(9, 10)),)))
        assert got.coords[5] == F(-9)


class TestEndToEndRecovery:
    def test_words_recovered_through_bundle_and_realize(self):
        rng = random.Random(606)
        particle = Ultrasubparticle(10, 8)
        alphabet = Alphabet(DEFAULT_ALPHABET)
        for _ in range(100):
            word = random_word(rng, DEFAULT_ALPHABET, 10)
            lam = lambda_for_code(encode(word, alphabet), 10)
            realized = realize(bundle(particle, 3, lam))
            assert decode(int(realized.coords[2]), alphabet) == word

    def test_untouched_qualities_stay_in_the_null_monad(self):
        particle = Ultrasubparticle(10, 8)
        realized = realize(bundle(particle, 3, lambda_for_code(999, 10)))
        assert realized.coords[0] == realized.coords[1] == 0
        assert all(entry == 0 for entry in realized.coords[3:])

    def test_base_invariance_of_realized_vectors(self):
        rng = random.Random(607)
        for _ in range(50):
            word = random_word(rng, DEFAULT_ALPHABET, 8)
            results = []
            for base in (2, 10):
                particle = Ultrasubparticle(base, 8)
                lam = lambda_for_code(encode(word), base)
                realized = realize(bundle(particle, 3, lam))
                results.append(realized.coords)
            assert results[0] == results[1]
            assert decode(int(results[0][2])) == word


class TestOneTranslationForEveryCount:
    """make_translation and make_lambda_translation share one translation,
    ``delta`` on the count slot and ``delta`` signed eps on the bundled
    coordinate, with ``delta = count - 1``; bundle adds the two shifts to the
    particle's own slots without building the map, and the properties below
    hold it to one application of that translation."""

    def particle(self):
        return Ultrasubparticle(10, 6, naming=4, signs=(1, -1, -1, 1))

    def test_empty_word_bundle_zeroes_count_and_coordinate_on_every_coordinate(self):
        particle = self.particle()
        source = particle.coords()
        for coord in range(3, 7):
            expected = list(source)
            expected[1] = expected[coord - 1] = zero()
            assert bundle(particle, coord, lambda_for_code(0, 10)).coords == tuple(expected)

    def test_every_count_matches_the_single_step_iterated(self):
        particle = self.particle()
        for coord in range(3, 7):
            single = make_translation(particle, coord)
            for n in (1, 2, 5):
                once = bundle(particle, coord, Hypernatural.from_int(n, 10)).coords
                assert once == iterate_translation(particle.coords(), single.translation, n - 1)
                if n > 1:
                    assert make_lambda_translation(particle, coord, Hypernatural.from_int(n, 10)) == AffineMap(
                        10, tuple(b.scale(n - 1) for b in single.translation)
                    )

    def test_count_of_another_base_is_refused(self):
        with pytest.raises(BaseMismatchError):
            make_lambda_translation(U4, 3, Hypernatural.from_int(2, 2))
        with pytest.raises(BaseMismatchError):
            bundle(U4, 3, lambda_for_code(5, 2))
        with pytest.raises(BaseMismatchError):
            quality_bundle(U4, QualitySpec(entries=((3, lambda_for_code(5, 2)),)))

    def test_coordinates_of_another_base_are_refused_even_where_nothing_shifts(self):
        step = make_translation(U4, 3)
        with pytest.raises(BaseMismatchError):
            apply_translation_times(step, (zero(), one(), eps(), eps(2)), 1)
        with pytest.raises(TypeError):
            apply_translation_times(step, (zero(), one(), eps(), 0), 1)


@st.composite
def particles_and_coords(draw, max_dims=12):
    """A particle of base 2 or 10 with 3..``max_dims`` coordinates, random signs
    and naming, and any of its quality coordinates."""
    base = draw(st.sampled_from((2, 10)))
    dims = draw(st.integers(min_value=3, max_value=max_dims))
    signs = draw(st.lists(st.sampled_from((1, -1)), min_size=dims - 2, max_size=dims - 2))
    naming = draw(st.integers(min_value=0, max_value=10**12))
    particle = Ultrasubparticle(base, dims, naming=naming, signs=tuple(signs))
    return particle, draw(st.integers(min_value=3, max_value=dims))


def counts(base):
    """Finite counts 1..50, ``code*H``, ``H + n`` and ``k*H^2 + n``."""
    finite, offset = st.integers(min_value=1, max_value=50), st.integers(min_value=0, max_value=50)
    return st.one_of(
        finite.map(lambda n: Hypernatural.from_int(n, base)),
        st.integers(min_value=1, max_value=10**30).map(lambda code: lambda_for_code(code, base)),
        offset.map(lambda n: Hypernatural(Hyperreal.generator(base) + n)),
        st.tuples(finite, offset).map(lambda kn: Hypernatural(Hyperreal.monomial(base, kn[0], 2) + kn[1])),
    )


@settings(deadline=None)
@given(particles_and_coords(), st.data())
def test_bundle_is_one_application_of_the_lambda_translation(particle_and_coord, data):
    particle, coord = particle_and_coord
    count = data.draw(counts(particle.base))
    got = bundle(particle, coord, count).coords
    assert got[1] == count.value
    assert got[coord - 1] == count.value * particle.coords()[coord - 1]
    assert all(got[i] is particle.coords()[i] for i in range(particle.dims) if i not in (1, coord - 1))


@given(particles_and_coords())
def test_bundle_of_count_zero_zeroes_its_two_slots_and_keeps_the_rest(particle_and_coord):
    particle, coord = particle_and_coord
    got = bundle(particle, coord, lambda_for_code(0, particle.base)).coords
    assert got[1].is_zero() and got[coord - 1].is_zero()
    assert all(got[i] is particle.coords()[i] for i in range(particle.dims) if i not in (1, coord - 1))


def realized_or_index(call):
    """The realized coordinates of ``call()``, or the 1-based index of the infinite slot it reports."""
    try:
        return call().coords
    except InfiniteCoordinateError as exc:
        return exc.index


@settings(deadline=None)
@given(particles_and_coords(max_dims=40), st.data())
def test_every_realization_path_agrees(particle_and_coord, data):
    particle, coord = particle_and_coord
    count = data.draw(st.just(lambda_for_code(0, particle.base)) | counts(particle.base))
    tail_scale = data.draw(st.integers(min_value=0, max_value=1000))
    bundled = bundle(particle, coord, count)
    got = [
        realized_or_index(lambda: realize(bundled)),
        realized_or_index(lambda: realize(bundled.coords, particle)),
        realized_or_index(lambda: quality_bundle(particle, QualitySpec(((coord, count),)))),
        realized_or_index(lambda: quality_bundle(particle, QualitySpec(((coord, count),), tail_scale=tail_scale))),
    ]
    assert got[1:] == got[:-1]
    assert got[0] == coord or got[0][coord - 1] * particle.sign(coord) == count.value.terms.get(1, 0)
    assert got[0] == coord or not any(got[0][:coord - 1] + got[0][coord:])
