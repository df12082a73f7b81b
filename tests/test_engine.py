"""Engine tests: translations, bundling, realization, quality bundling."""

import random
from fractions import Fraction

import pytest

from subparticle.codec import DEFAULT_ALPHABET, Alphabet, decode, encode
from subparticle.engine import (
    AffineMap,
    InfiniteCoordinateError,
    IntermediateSubparticle,
    QualitySpec,
    RealizationMap,
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
        with pytest.raises(ValueError):
            Ultrasubparticle(10, 4, signs=(1, 2))


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

    def test_given_coords_give_the_same_bundle(self):
        particle = Ultrasubparticle(2, 32, signs=tuple(random.Random(5).choice((1, -1)) for _ in range(30)))
        for code in (0, 1, 2, 999):
            count = lambda_for_code(code, 2)
            assert bundle(particle, 4, count, particle.coords()) == bundle(particle, 4, count)

    def test_untranslated_slots_are_passed_through(self):
        source = U4.coords()
        got = bundle(U4, 3, lambda_for_code(29, 10), source)
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


class TestRealizationMap:
    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            RealizationMap(4).apply((zero(), one(), eps()))

    def test_realized_vector_validates_suppressed_slots(self):
        with pytest.raises(ValueError):
            RealizedVector((F(1), F(0), F(0)))
        with pytest.raises(ValueError):
            RealizedVector((F(0), F(2), F(0)))


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
    """make_translation, make_lambda_translation and bundle share one
    translation, ``delta`` on the count slot and ``delta`` signed eps on the
    bundled coordinate, with ``delta = count - 1``."""

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
            quality_bundle(U4, QualitySpec(entries=((3, lambda_for_code(5, 2)),)))

    def test_coordinates_of_another_base_are_refused_even_where_nothing_shifts(self):
        step = make_translation(U4, 3)
        with pytest.raises(BaseMismatchError):
            apply_translation_times(step, (zero(), one(), eps(), eps(2)), 1)
        with pytest.raises(TypeError):
            apply_translation_times(step, (zero(), one(), eps(), 0), 1)
