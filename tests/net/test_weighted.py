"""Exact-draw tests for the samplers that pick from cached cumulative weights.

Each sampler must make the pick ``rng.choices(items, weights=w, k=1)[0]``
makes from the same RNG state and leave the RNG in the same state, so
population synthesis stays byte-identical to the per-call ``choices``
code it replaced.  The references below are that code, kept here.
"""

from __future__ import annotations

import math
import random

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from repro.net.geo import City, Country, World
from repro.net.links import BroadbandModel, BroadbandTier, mbps
from repro.net.nat import NATModel, NATType
from repro.net.topology import ASTopology, AutonomousSystem
from repro.net.weighted import WeightedPicker

#: Non-negative weight lists with a positive total; zeros are common.
_weights = st.lists(
    st.one_of(st.just(0.0), st.floats(min_value=1e-6, max_value=1e6)),
    min_size=1, max_size=8,
).filter(lambda w: sum(w) > 0)


@st.composite
def weights_and_norm(draw):
    """A weight list, optionally normalised to sum to one (float division)."""
    w = draw(_weights)
    if draw(st.booleans()):
        total = sum(w)
        w = [x / total for x in w]
    return w


_seeds = st.integers(min_value=0, max_value=2**32 - 1)
_draws = st.integers(min_value=1, max_value=20)


def _reference_picks(items, weights, seed, k):
    rng = random.Random(seed)
    picks = [rng.choices(items, weights=weights, k=1)[0] for _ in range(k)]
    return picks, rng.getstate()


@settings(max_examples=60)
@given(w=weights_and_norm(), seed=_seeds, k=_draws)
def test_picker_matches_choices(w, seed, k):
    items = list(range(len(w)))
    rng = random.Random(seed)
    picker = WeightedPicker(items, w)
    picks = [picker.pick(rng) for _ in range(k)]
    assert (picks, rng.getstate()) == _reference_picks(items, w, seed, k)


def test_picker_never_picks_zero_weight():
    rng = random.Random(3)
    picker = WeightedPicker("abc", [0.0, 1.0, 0.0])
    assert {picker.pick(rng) for _ in range(200)} == {"b"}


def test_picker_rejects_a_zero_total():
    with pytest.raises(ValueError):
        WeightedPicker("ab", [0.0, 0.0])


def _country(code, weight, city_weights):
    cities = tuple(City(f"{code}{i}", float(i), float(i), cw)
                   for i, cw in enumerate(city_weights))
    return Country(code, code, "Europe", weight, cities)


@settings(max_examples=60)
@given(w=weights_and_norm(), seed=_seeds, k=_draws)
def test_sample_country_matches_choices(w, seed, k):
    countries = [_country(f"C{i}", x, [1.0]) for i, x in enumerate(w)]
    world = World(countries)
    rng = random.Random(seed)
    picks = [world.sample_country(rng) for _ in range(k)]
    assert (picks, rng.getstate()) == _reference_picks(countries, w, seed, k)


@settings(max_examples=60)
@given(w=weights_and_norm(), seed=_seeds, k=_draws)
def test_sample_city_matches_choices(w, seed, k):
    home = _country("AA", 1.0, w)
    world = World([home, _country("BB", 1.0, [1.0])])
    rng = random.Random(seed)
    picks = [world.sample_city(home, rng) for _ in range(k)]
    assert (picks, rng.getstate()) == \
        _reference_picks(list(home.cities), w, seed, k)


def test_sample_city_of_a_foreign_country_uses_its_own_cities():
    home = _country("AA", 1.0, [1.0, 0.0])
    world = World([home])
    stranger = _country("AA", 1.0, [0.0, 0.0, 5.0])  # same code, not world's
    rng = random.Random(1)
    for country, city in ((home, 0), (stranger, 2), (home, 0)):
        assert world.sample_city(country, rng) is country.cities[city]


@settings(max_examples=60)
@given(w=weights_and_norm(), seed=_seeds, k=_draws)
def test_sample_as_matches_choices(w, seed, k):
    ases = [AutonomousSystem(1000 + i, f"AA-ISP-{i}", "AA", "Europe", "eu",
                             "eyeball", x) for i, x in enumerate(w)]
    topology = ASTopology(ases, nx.Graph())
    rng = random.Random(seed)
    picks = [topology.sample_as("AA", rng) for _ in range(k)]
    assert (picks, rng.getstate()) == _reference_picks(ases, w, seed, k)


def _reference_link(rng, tiers, speed_multiplier):
    """The per-call ``choices`` body ``BroadbandModel.sample`` used to run."""
    total = sum(t.weight for t in tiers)
    weights = [t.weight / total for t in tiers]
    tier = rng.choices(tiers, weights=weights, k=1)[0]

    def log_uniform(low, high):
        if high == low:
            return low
        return math.exp(rng.uniform(math.log(low), math.log(high)))

    down = log_uniform(*tier.down_mbps) * speed_multiplier
    up = log_uniform(*tier.up_mbps) * speed_multiplier
    return tier.name, mbps(down), mbps(min(up, down))


@settings(max_examples=60)
@given(w=weights_and_norm(), seed=_seeds, k=_draws,
       speed=st.floats(min_value=0.1, max_value=3.0))
def test_broadband_draw_matches_choices(w, seed, k, speed):
    tiers = tuple(BroadbandTier(f"t{i}", x, (1.0, 1.0 + i), (0.5, 0.5 + i))
                  for i, x in enumerate(w))
    model = BroadbandModel(random.Random(seed), tiers)
    draws = [model.draw(speed) for _ in range(k)]
    ref = random.Random(seed)
    expected = [_reference_link(ref, tiers, speed) for _ in range(k)]
    assert draws == expected
    assert model._rng.getstate() == ref.getstate()


def test_broadband_sample_builds_the_drawn_link():
    drawn = BroadbandModel(random.Random(9)).draw(1.3)
    link = BroadbandModel(random.Random(9)).sample("p0", speed_multiplier=1.3)
    assert (link.tier, link.down_bps, link.up_bps) == drawn
    assert (link.downlink.name, link.uplink.name) == ("p0/down", "p0/up")


def _reference_nat(rng, types, weights, misclassify_prob):
    """The per-call ``choices`` body ``NATModel.sample`` used to run."""
    true_type = rng.choices(types, weights=weights, k=1)[0]
    reported = true_type
    if rng.random() < misclassify_prob:
        reported = rng.choice([t for t in types if t is not true_type])
    return true_type, reported


@settings(max_examples=60)
@given(w=st.lists(st.one_of(st.just(0.0), st.floats(0.01, 10.0)),
                  min_size=len(NATType), max_size=len(NATType))
       .filter(lambda w: sum(w) > 0),
       seed=_seeds, k=_draws, misclassify=st.sampled_from([0.0, 0.02, 0.5]))
def test_nat_draw_matches_choices(w, seed, k, misclassify):
    mix = dict(zip(NATType, w))
    model = NATModel(random.Random(seed), mix, misclassify_prob=misclassify)
    draws = [model.draw() for _ in range(k)]
    types = list(mix)
    total = sum(mix.values())
    weights = [mix[t] / total for t in types]
    ref = random.Random(seed)
    expected = [_reference_nat(ref, types, weights, misclassify)
                for _ in range(k)]
    assert draws == expected
    assert model._rng.getstate() == ref.getstate()


def test_nat_sample_wraps_draw_and_honours_an_override_rng():
    model = NATModel(random.Random(1))
    true_type, reported = NATModel(random.Random(1)).draw(random.Random(4))
    profile = model.sample(random.Random(4))
    assert (profile.true_type, profile.reported_type) == (true_type, reported)
    assert model._rng.getstate() == random.Random(1).getstate()
