"""The cross-commit contract: the tiny config's artifacts and numbers match
the values committed in tests/golden/expected.json.

Hashes and edge counts must be equal; floats may move by rtol 1e-9, which
admits reordered floating-point sums and catches any semantic change.
"""

import json

import numpy as np

from golden.make_golden import EXPECTED, collect


def test_artifacts_match_committed_golden_values(tmp_path, capsys):
    want = json.loads(EXPECTED.read_text())
    got = collect(tmp_path)
    capsys.readouterr()
    for key in ("data_csv_sha256", "graph_json_sha256", "edges_by_origin"):
        assert got[key] == want[key], key
    assert got["models"].keys() == want["models"].keys()
    for name, model in want["models"].items():
        for key in ("loss_trace", "final_train_mae"):
            np.testing.assert_allclose(got["models"][name][key], model[key],
                                       rtol=1e-9, atol=0, err_msg=f"{name} {key}")
        assert got["models"][name]["predictions"].keys() == model["predictions"].keys()
        for strategy, yhat in model["predictions"].items():
            np.testing.assert_allclose(got["models"][name]["predictions"][strategy], yhat,
                                       rtol=1e-9, atol=0, err_msg=f"{name} {strategy}")
