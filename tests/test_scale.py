"""scripts/scale.py's per-input function, run in this process on a small
input; the script itself runs each input in a child of its own."""
import importlib.util
from pathlib import Path

import pytest

from linvar import presets

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "scale.py"


def _load():
    spec = importlib.util.spec_from_file_location("scale", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_measure_reports_one_input():
    scale = _load()
    line = scale.measure("nu(4)")
    assert set(line) == {"input", "verdicts", "widths", "cpu_s", "peak_rss_mib"}
    assert line["input"] == "nu(4)"
    assert line["verdicts"] == {"cm": "yes", "nci": "yes", "nperm": "no"}
    assert line["widths"] == {"derivative": 2, "order_derivative": 3}
    assert line["cpu_s"] >= 0 and line["peak_rss_mib"] > 0


def test_inputs_name_the_shared_builders():
    scale = _load()
    assert scale.build("nu(5)") == presets.near_unanimity(5)
    assert scale.build("jonsson(6)") == presets.jonsson(6)
    for name in scale.DEFAULT_INPUTS:
        scale.build(name)
    for bad in ("nu", "nu(x)", "maltsev(3)", "nu(3) "):
        with pytest.raises(ValueError, match="is not family"):
            scale.build(bad)
