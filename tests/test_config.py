import pytest

from pavecast.config import RunConfigError, read_config
from pavecast.model import ModelConfig
from pavecast.pipeline import RunConfig


def test_lists_become_tuples_in_nested_sections():
    cfg = read_config(RunConfig, {"split": [0.2, 0.6, 0.2], "dataset": {
        "synthetic": {"driver_spell_days": [5, 9.5]}}}, "config")
    assert cfg.split == (0.2, 0.6, 0.2)
    assert cfg.dataset.synthetic.driver_spell_days == (5, 9.5)


def test_an_integer_fits_a_float_field_as_it_is():
    assert read_config(ModelConfig, {"eam_gamma": 1}, "model").eam_gamma == 1


@pytest.mark.parametrize("cls,values,message", [
    (ModelConfig, {"eam_gamma": False}, "model.eam_gamma must be float, got False"),
    (ModelConfig, {"extractor_hidden": [8, "16"]},
     "model.extractor_hidden must be tuple[int, ...], got [8, '16']"),
    (ModelConfig, [1], "model must be an object, got [1]"),
    (RunConfig, {"graph": 3}, "config.graph must be sg.GraphConfig, got 3"),
    (RunConfig, {"dataset": {"synthetic": {"seed": "x"}}},
     "dataset.synthetic.seed must be int, got 'x'"),
    (RunConfig, {"dataset": {"synthetic": {"bogus": 1}}}, "unknown dataset.synthetic key 'bogus'"),
], ids=["bool-for-float", "text-element", "not-an-object", "number-for-section",
        "nested-value", "nested-key"])
def test_a_value_its_field_does_not_admit_is_named(cls, values, message):
    with pytest.raises(RunConfigError) as exc:
        read_config(cls, values, "config" if cls is RunConfig else "model")
    assert str(exc.value) == message
