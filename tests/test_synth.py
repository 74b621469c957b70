import pytest

from zoneseq import ingest, ppm, synth
from zoneseq.core import ValidationError
from zoneseq.synth import SynthConfig, generate
from conftest import oracle_seq_reward, zone_templates


SMALL = dict(n_train_routes=15, n_eval_routes=4, zones_per_route=(4, 6),
             stops_per_zone=(1, 3), n_zone_templates=2)


def test_config_validation():
    with pytest.raises(ValidationError):
        SynthConfig(zones_per_route=(5, 2))
    with pytest.raises(ValidationError):
        SynthConfig(pattern_strength=1.5)
    with pytest.raises(ValidationError):
        SynthConfig(n_zone_templates=0)
    for key, value in [("n_train_routes", "3"), ("stops_per_zone", (1.5, 2)),
                       ("n_train_routes", True), ("geo_bbox", (47.0, -122.4, 47.3))]:
        with pytest.raises(ValidationError, match=repr(key)):
            SynthConfig(**{key: value})
    assert SynthConfig(zones_per_route=[2, 3]).zones_per_route == (2, 3)


def test_deterministic_given_seed(tmp_path):
    cfg = SynthConfig(seed=9, **SMALL)
    for sub in ("a", "b"):
        train, _ = generate(cfg)
        ingest.write_dataset(train, tmp_path / sub)
    for name in ("routes.json", "actual_sequences.json", "travel_times.json",
                 "quality.json"):
        assert (tmp_path / "a" / name).read_bytes() == \
            (tmp_path / "b" / name).read_bytes()


def test_generated_datasets_pass_ingest_validation(tmp_path):
    cfg = SynthConfig(seed=3, **SMALL)
    train, eval_ds = generate(cfg)
    ingest.write_dataset(train, tmp_path / "train")
    ingest.write_dataset(eval_ds, tmp_path / "eval")
    loaded = ingest.load_dataset(tmp_path / "train")
    assert len(loaded.routes) == cfg.n_train_routes
    for route in loaded.routes.values():
        assert route.actual is not None
        assert all(s.zone_id for s in route.delivery_stops())


def test_full_strength_routes_follow_template_order():
    cfg = SynthConfig(seed=4, pattern_strength=1.0, **SMALL)
    train, _ = generate(cfg)
    templates = zone_templates(cfg)
    for route in train.routes.values():
        zs = ingest.zsgt(route)
        matches = [t for t in templates if set(t[:len(zs)]) == set(zs)]
        assert any(tuple(t[:len(zs)]) == zs for t in matches)


def test_zero_strength_shuffles_some_route():
    cfg = SynthConfig(seed=5, pattern_strength=0.0, **SMALL)
    train, _ = generate(cfg)
    templates = zone_templates(cfg)
    mismatched = 0
    for route in train.routes.values():
        zs = ingest.zsgt(route)
        if not any(tuple(t[:len(zs)]) == zs for t in templates):
            mismatched += 1
    assert mismatched >= 1


def test_strong_pattern_learnable():
    cfg = SynthConfig(seed=6, pattern_strength=0.95, n_train_routes=40,
                      n_eval_routes=1, zones_per_route=(6, 8),
                      stops_per_zone=(1, 2), n_zone_templates=3)
    train, _ = generate(cfg)
    model = ppm.train(ingest.training_corpus(train))
    for template in zone_templates(cfg):
        order = template[:cfg.zones_per_route[0]]
        assert oracle_seq_reward(model, order) > oracle_seq_reward(model, order[::-1])
