import importlib.util
import json
from pathlib import Path

from subtv import parse_poset
from subtv.instances import generate_instance
from subtv.posets import BiasedExtensionSampler, UniformExtensionSampler

SURVEY = Path(__file__).resolve().parents[1] / "scripts" / "survey.py"


def _load_survey():
    spec = importlib.util.spec_from_file_location("survey", SURVEY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_survey_builds_its_samplers_for_every_corpus_instance():
    # the survey's presets go through the CLI's spec parser; identity_test
    # is not run here
    survey = _load_survey()
    for family, param, size, index in survey.DEFAULT_CORPUS:
        poset = parse_poset(json.dumps(generate_instance(family, param, size, index)))
        samplers = survey.samplers_for(poset)
        assert list(samplers) == ["uniform", "biased-equal", "biased-ramp"]
        assert isinstance(samplers["uniform"], UniformExtensionSampler)
        for name in ("biased-equal", "biased-ramp"):
            assert isinstance(samplers[name], BiasedExtensionSampler)
        assert all(s.n == poset.free_map.n for s in samplers.values())
