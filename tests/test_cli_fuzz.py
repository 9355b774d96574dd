"""Seeded fuzz of the command line: the input files of a tiny synth, with
cells mutated and rows duplicated, dropped or swapped, and config keys set
to odd values, make each command succeed or fail with one ``error:`` line,
never an escaped exception."""

import numpy as np
import pytest

import cfpt.model
from cfpt.cli import _CONFIG_KEYS, main

_CONFIG = (
    "cohort.n_patients = 12\ncohort.feature_dim = 3\nk_folds = 3\nmodel.hidden_dims = 4\n"
    "train.max_epochs = 2\ntrain.lr_decay_epochs = 1\ntrain.batch_size = 16\n"
    "paths.labels = {data}/labels.csv\npaths.scans = {data}/scans.csv\n"
)
# each input file -> the commands that read it, as argument templates
_COMMANDS = {
    "patients.csv": [["label", "{data}/patients.csv", "--out", "{out}/labels.csv"]],
    "labels.csv": [
        ["km", "{data}/labels.csv", "--out", "{out}/km.csv"],
        ["eval", "{data}/predictions.csv", "{data}/labels.csv", "--out", "{out}/eval"],
        ["crossval", "--config", "{cfg}", "--out", "{out}/run"],
    ],
    "predictions.csv": [
        ["eval", "{data}/predictions.csv", "{data}/labels.csv", "--out", "{out}/eval"],
    ],
    "scans.csv": [["crossval", "--config", "{cfg}", "--out", "{out}/run"]],
}
_TOKENS = [
    "", "x", "0", "1", "2", "-1", "0.5", "-0.0", "1.5", "1e308", "-1e308", "5e-324",
    "nan", "inf", "-inf", '"', '"a,b"', " 1", "s0",
]
_CASES_PER_FILE = 40


def _mutate(rng, lines):
    """``lines`` with one to three random edits, most of them a cell
    replaced by a token or by the same column's cell of another line, the
    rest a data line duplicated, dropped or swapped with another line."""
    lines = list(lines)
    for _ in range(int(rng.integers(1, 4))):
        i = int(rng.integers(0, len(lines)))
        j = int(rng.integers(1, len(lines))) if len(lines) > 1 else 0
        edit = rng.integers(0, 6)
        if edit < 3:
            cells = lines[i].split(",")
            donor = lines[int(rng.integers(0, len(lines)))].split(",")
            k = int(rng.integers(0, len(cells)))
            use_donor = k < len(donor) and rng.random() < 0.3
            cells[k] = donor[k] if use_donor else str(rng.choice(_TOKENS))
            lines[i] = ",".join(cells)
        elif edit == 3 and j:
            lines.insert(int(rng.integers(1, len(lines) + 1)), lines[j])
        elif edit == 4 and j:
            del lines[j]
        else:  # a swap, which moves the header when i is 0
            lines[i], lines[j] = lines[j], lines[i]
    return lines


def _run(argv, capsys, what):
    """``main(argv)``'s exit code, after checking it is 0 or 1 with as many
    ``error:`` lines on stderr and that no exception escaped."""
    try:
        code = main(argv)
    except Exception as exc:
        pytest.fail(f"cfpt {' '.join(argv)} raised {exc!r} on {what}")
    errors = [line for line in capsys.readouterr().err.splitlines()
              if line.startswith("error:")]
    assert code in (0, 1), (argv, what)
    assert len(errors) == code, (argv, what, errors)
    return code


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # training on mutated features
def test_mutated_inputs_exit_0_or_1_with_at_most_one_error_line(tmp_path, capsys, monkeypatch):
    # the folds train in this process, so an exception in one would escape here
    monkeypatch.setattr(cfpt.model, "_available_cpus", lambda: 1)
    data, out, cfg = tmp_path / "data", tmp_path / "out", tmp_path / "exp.cfg"
    cfg.write_text(_CONFIG.format(data=data), encoding="utf-8")
    out.mkdir()
    assert main(["synth", "--config", str(cfg), "--out", str(data)]) == 0
    assert main(["label", str(data / "patients.csv"), "--out", str(data / "labels.csv")]) == 0
    assert main(["crossval", "--config", str(cfg), "--out", str(data)]) == 0
    capsys.readouterr()
    clean = {name: (data / name).read_text(encoding="utf-8") for name in _COMMANDS}

    rng = np.random.default_rng(2019)
    runs = {0: 0, 1: 0}
    for name, commands in _COMMANDS.items():
        for _ in range(_CASES_PER_FILE):
            text = "\n".join(_mutate(rng, clean[name].splitlines())) + "\n"
            (data / name).write_text(text, encoding="utf-8")
            for template in commands:
                argv = [a.format(data=data, out=out, cfg=cfg) for a in template]
                runs[_run(argv, capsys, f"{name}:\n{text}")] += 1
        (data / name).write_text(clean[name], encoding="utf-8")
    # the mutations reach both outcomes
    assert min(runs.values()) > 0


_TOKENS_PER_KEY = 8


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # training on odd settings
def test_odd_config_values_exit_0_or_1_with_at_most_one_error_line(
    tmp_path, capsys, monkeypatch
):
    # the folds train in this process, so an exception in one would escape here
    monkeypatch.setattr(cfpt.model, "_available_cpus", lambda: 1)
    monkeypatch.chdir(tmp_path)  # a path key set to a token names a file here
    rng = np.random.default_rng(2020)
    runs = {0: 0, 1: 0}
    for case, (key, token) in enumerate(
        (key, str(token))
        for key in _CONFIG_KEYS
        for token in rng.choice(_TOKENS, _TOKENS_PER_KEY, replace=False)
    ):
        data, cfg = tmp_path / f"d{case}", tmp_path / f"c{case}.cfg"
        settings = dict(
            line.split(" = ") for line in _CONFIG.format(data=data).splitlines()
        )
        settings[key] = token
        cfg.write_text("".join(f"{k} = {v}\n" for k, v in settings.items()), encoding="utf-8")
        what = f"{key} = {token!r}"
        code = _run(["synth", "--config", str(cfg), "--out", str(data)], capsys, what)
        if code == 0:
            patients, labels = data / "patients.csv", data / "labels.csv"
            assert _run(["label", str(patients), "--out", str(labels)], capsys, what) == 0
            code = _run(["crossval", "--config", str(cfg), "--out", str(data / "run")],
                        capsys, what)
        runs[code] += 1
    # the values reach both outcomes
    assert min(runs.values()) > 0
