from __future__ import annotations

from dataclasses import replace

from scenforge import prng, sampling
from scenforge.synth import ParamRange, ScenarioTemplate

from .conftest import load_template


def test_splitmix64_reference_vector():
    # Fixed reference stream for state 0 (cross-implementation anchor).
    g = prng.SplitMix64(0)
    assert [g.next_u64() for _ in range(3)] == [
        0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]


def test_stream_labels_are_independent():
    a = prng.stream(1, "ego_speed").next_u64()
    b = prng.stream(1, "npc_speed").next_u64()
    c = prng.stream(2, "ego_speed").next_u64()
    assert len({a, b, c}) == 3


def _degenerate_template() -> ScenarioTemplate:
    template = load_template("straight-1")
    fixed_speed = ParamRange("ego_speed", 10.0, 10.0, "m/s")
    params = replace(template.params, ego_speed=fixed_speed)
    free = tuple(fixed_speed if r.name == "ego_speed" else r for r in template.free_parameters)
    return ScenarioTemplate(params=params, free_parameters=free,
                            fixed_parameters=template.fixed_parameters)


def test_bindings_within_bounds():
    template = load_template("straight-1")
    bounds = {r.name: (r.low, r.high) for r in template.free_parameters}
    for seed in range(200):
        instance = sampling.sample_instance(template, seed)
        for name, value in instance.bindings.items():
            low, high = bounds[name]
            assert low <= value <= high


def test_degenerate_range_binds_exactly():
    instance = sampling.sample_instance(_degenerate_template(), 123)
    assert instance.bindings["ego_speed"] == 10.0


def test_sampling_deterministic():
    template = load_template("intersection-1")
    a = sampling.sample_instance(template, 77)
    b = sampling.sample_instance(template, 77)
    assert a == b
    assert a.bindings == b.bindings


def test_batch_is_consecutive_seeds():
    template = load_template("straight-1")
    batch = sampling.sample_batch(template, n=5, base_seed=100)
    assert [i.instance_seed for i in batch] == [100, 101, 102, 103, 104]
    assert batch[0] == sampling.sample_instance(template, 100)


def test_batch_singleton_matches_single():
    template = load_template("curve")
    assert sampling.sample_batch(template, n=1, base_seed=9) == [
        sampling.sample_instance(template, 9)]


def test_default_batch_size_is_2000():
    template = load_template("straight-1")
    assert len(sampling.sample_batch(template)) == 2000


def test_uniform_mean_over_2000():
    template = load_template("straight-1")  # ego_speed range [8, 12]
    values = [sampling.sample_instance(template, seed).bindings["ego_speed"]
              for seed in range(2000)]
    mean = sum(values) / len(values)
    assert 9.9 <= mean <= 10.1
    assert all(8.0 <= v <= 12.0 for v in values)


def test_seed_disjointness():
    template = load_template("straight-1")
    seen = set()
    collisions = 0
    for seed in range(10_000):
        key = tuple(sampling.sample_instance(template, seed).bindings.items())
        if key in seen:
            collisions += 1
        seen.add(key)
    assert collisions / 10_000 < 0.001


def test_order_independence():
    template = load_template("straight-1")
    shuffled = ScenarioTemplate(
        params=template.params,
        free_parameters=tuple(reversed(template.free_parameters)),
        fixed_parameters=template.fixed_parameters,
    )
    assert (sampling.sample_instance(template, 5).bindings
            == sampling.sample_instance(shuffled, 5).bindings)


def test_manifest_round_trip():
    template = load_template("t-intersection")
    batch = sampling.sample_batch(template, n=7, base_seed=3)
    text = sampling.write_manifest(batch)
    assert sampling.read_manifest(text) == batch
    assert text == sampling.write_manifest(batch)


def test_manifest_lines_break_at_newline_only():
    """A binding name holding a raw U+2028 stays in its line; CRLF reads as LF."""
    instance = sampling.sample_instance(load_template("straight-1"), 0)
    odd = replace(instance, bindings={"ego\u2028speed": 1.5})
    text = sampling.write_manifest([odd]).replace("\\u2028", "\u2028")
    assert "\u2028" in text
    assert sampling.read_manifest(text + text.replace("\n", "\r\n")) == [odd, odd]
