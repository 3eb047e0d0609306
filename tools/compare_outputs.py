"""Check that the working tree's CLI outputs are byte-identical to a git revision's.

    python tools/compare_outputs.py REV

Extracts ``git archive REV src configs`` into a temporary directory, then runs
``simulate``, ``correspondence``, ``oracle`` and ``diagnostics`` on each config
under ``configs/``, at the config seed and at ``--seed 7``, once with that tree
and once with the working tree. ``oracle`` also runs at the larger grid sizes of
``ORACLE_NODES``, the node counts of the benchmark's grid-refine workload. Each
run gets its own directory holding a copy of its tree's config (with the grid
size replaced where one is given), so both sides pass the same arguments. Two
more runs call ``simulate.jump_count_pmf``, which no CLI command reaches, at
the sizes of the benchmark's sat-verify workload (``PMF_CONFIG``, ``PMF_TIMES``,
``PMF_REPLICAS``, ``PMF_MAX_COUNT``, stream (seed, 7)), at the config seed and
at seed 7; each runs in a subprocess with its tree's ``src``, as the CLI runs
do, and writes the pmf to ``jump_count_pmf.csv`` with every value as its
shortest round-trip ``repr``. Every output file, stdout, stderr and the exit
code are compared. Every run is made; each differing run is printed with each
of its differing items (exit code, stream or output file) and that item's
first differing line; a differing CSV or JSON file also gets the largest
absolute and the largest relative difference over its numbers, so a
rounding-level move shows its size. Exits 1 when any run differs, 0 when every
run matches, 2 when REV cannot be extracted. Runs serially; the 34 runs take
about 30 s on two cores.
"""

from __future__ import annotations

import io
import json
import os
import shutil
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COMMANDS = ("simulate", "correspondence", "oracle", "diagnostics")
SEEDS = (None, 7)
ORACLE_NODES = {"gene_saturating.json": (800, 1600), "two_regime.json": (400, 800)}
PMF_CONFIG = "gene_saturating.json"
PMF_TIMES = (0.5, 1.0, 2.0)
PMF_REPLICAS = 20_000
PMF_MAX_COUNT = 12
PMF_SCRIPT = """\
import json, sys
from pathlib import Path
from pdmp_lab.models import build_model
from pdmp_lab.simulate import jump_count_pmf
times, replicas, max_count, seed = json.loads(sys.argv[1])
cfg = json.loads(Path("config.json").read_text())
model = build_model(cfg["model"]["name"], cfg["model"]["params"])
seed = cfg["seed"] if seed is None else seed
pmf = jump_count_pmf(model, times, replicas, (seed, 7), max_count=max_count)
Path("out").mkdir()
Path("out/jump_count_pmf.csv").write_text("t,count,p\\n" + "".join(
    f"{t!r},{n},{p!r}\\n" for t, row in pmf.items() for n, p in enumerate(row.tolist())))
"""


def cases(configs: list[str]) -> list[tuple[str, str, str, list[str], int | None]]:
    """(label, run name, config, interpreter arguments, grid nodes) of every run:
    each command on each config at each seed, ``oracle`` at each of
    ``ORACLE_NODES``, then ``jump_count_pmf`` at each seed."""
    def label(what, config, seed, nodes=None):
        return (f"{what} {config}" + ("" if nodes is None else f" at {nodes} nodes")
                + ("" if seed is None else f" --seed {seed}"))

    def cli(command, config, seed, nodes):
        args = ["-m", "pdmp_lab.cli", command, "--config", "config.json", "--out", "out"]
        args += [] if seed is None else ["--seed", str(seed)]
        return (label(command, config, seed, nodes), f"{command}-{config[:-5]}-{nodes}-{seed}",
                config, args, nodes)

    found = [cli(command, config, seed, None)
             for config in configs for command in COMMANDS for seed in SEEDS]
    found += [cli("oracle", config, seed, nodes) for config in configs
              for nodes in ORACLE_NODES.get(config, ()) for seed in SEEDS]
    found += [(label("jump_count_pmf", PMF_CONFIG, seed), f"jump_count_pmf-{seed}", PMF_CONFIG,
               ["-c", PMF_SCRIPT, json.dumps([PMF_TIMES, PMF_REPLICAS, PMF_MAX_COUNT, seed])],
               None) for seed in SEEDS]
    return found


def extract(rev: str, dest: Path) -> None:
    archive = subprocess.run(["git", "archive", "--format=tar", rev, "src", "configs"],
                             cwd=ROOT, capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")


def run(tree: Path, args: list[str], config: str, nodes, run_dir: Path) -> dict:
    """One run of the interpreter with ``args`` from ``tree``, at ``nodes`` grid
    nodes unless None: its exit code, stdout, stderr and output files."""
    run_dir.mkdir(parents=True)
    source = tree / "configs" / config
    if source.exists() and nodes is not None:
        cfg = json.loads(source.read_text())
        cfg["grid"] = {**cfg.get("grid", {}), "nodes": nodes}
        (run_dir / "config.json").write_text(json.dumps(cfg))
    elif source.exists():
        shutil.copyfile(source, run_dir / "config.json")
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, *args], cwd=run_dir, env=env, capture_output=True)
    out = run_dir / "out"
    files = {} if not out.is_dir() else {
        str(p.relative_to(out)): p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()}
    return {"exit code": proc.returncode, "stdout": proc.stdout, "stderr": proc.stderr,
            "files": files}


def first_line_difference(a: bytes, b: bytes, rev: str) -> str:
    lines_a, lines_b = a.splitlines(), b.splitlines()
    for k, (la, lb) in enumerate(zip(lines_a, lines_b), 1):
        if la != lb:
            return f"at line {k}:\n  {rev}: {la[:200]!r}\n  working tree: {lb[:200]!r}"
    return f"in length: {len(lines_a)} lines at {rev}, {len(lines_b)} in the working tree"


def _csv_numbers(data: bytes):
    """(where, value) of every cell of a CSV file that parses as a number."""
    for k, line in enumerate(data.decode().splitlines(), 1):
        for j, cell in enumerate(line.split(","), 1):
            try:
                yield f"line {k} column {j}", float(cell)
            except ValueError:
                pass


def _json_numbers(value, where: str = ""):
    """(where, value) of every number of a parsed JSON document, by key path."""
    if isinstance(value, dict):
        for key in sorted(value):
            yield from _json_numbers(value[key], f"{where}.{key}" if where else key)
    elif isinstance(value, list):
        for k, item in enumerate(value):
            yield from _json_numbers(item, f"{where}[{k}]")
    elif isinstance(value, (int, float)) and not isinstance(value, bool):
        yield where, float(value)


def largest_differences(name: str, a: bytes, b: bytes) -> str:
    """The largest |x - y| and the largest |x - y| / max(|x|, |y|) over the
    numbers of two CSV or JSON files, paired by position, and where each is;
    empty for another kind of file, or when the two files do not hold their
    numbers at the same places. The absolute one sizes a move that the relative
    one reads as 1, such as a round-off value that went from 2e-16 to 0."""
    if name.endswith(".csv"):
        numbers_a, numbers_b = list(_csv_numbers(a)), list(_csv_numbers(b))
    elif name.endswith(".json"):
        numbers_a = list(_json_numbers(json.loads(a)))
        numbers_b = list(_json_numbers(json.loads(b)))
    else:
        return ""
    if [w for w, _ in numbers_a] != [w for w, _ in numbers_b]:
        return "\n  its numbers do not pair up, so no difference is sized"
    largest = {"absolute": (0.0, None), "relative": (0.0, None)}
    for (where, x), (_, y) in zip(numbers_a, numbers_b):
        if x == y or (x != x and y != y):  # equal, or both NaN
            continue
        gap = abs(x - y)
        for kind, size in (("absolute", gap), ("relative", gap / max(abs(x), abs(y)))):
            if not size <= largest[kind][0]:  # an infinity or a NaN against a number is largest
                largest[kind] = (size, where)
    if largest["absolute"][1] is None:
        return "\n  its numbers are equal"
    return "".join(f"\n  largest {kind} difference over its numbers: {size:.3g} at {where}"
                   for kind, (size, where) in largest.items())


def differences(base: dict, head: dict, rev: str) -> list[str]:
    """A description of each differing item of two runs; empty when they match."""
    found = []
    if base["exit code"] != head["exit code"]:
        found.append(f"exit code {base['exit code']} at {rev}, "
                     f"{head['exit code']} in the working tree")
    for key in ("stdout", "stderr"):
        if base[key] != head[key]:
            found.append(f"{key} differs {first_line_difference(base[key], head[key], rev)}")
    if base["files"].keys() != head["files"].keys():
        found.append(f"output files {sorted(base['files'])} at {rev}, "
                     f"{sorted(head['files'])} in the working tree")
    for name, data in base["files"].items():
        if name in head["files"] and data != head["files"][name]:
            found.append(f"{name} differs {first_line_difference(data, head['files'][name], rev)}"
                         + largest_differences(name, data, head["files"][name]))
    return found


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    rev = argv[0]
    configs = sorted(p.name for p in (ROOT / "configs").glob("*.json"))
    with tempfile.TemporaryDirectory(prefix="compare_outputs_") as tmp:
        tmp = Path(tmp)
        try:
            extract(rev, tmp / "base")
        except subprocess.CalledProcessError as exc:
            print(f"cannot extract {rev}: {exc.stderr.decode().strip()}", file=sys.stderr)
            return 2
        runs = cases(configs)
        differing = 0
        for label, name, config, args, nodes in runs:
            base = run(tmp / "base", args, config, nodes, tmp / "runs" / "base" / name)
            head = run(ROOT, args, config, nodes, tmp / "runs" / "head" / name)
            found = differences(base, head, rev)
            differing += bool(found)
            if not found:
                print(f"{label}: identical (exit {head['exit code']}, "
                      f"{len(head['files'])} files)", flush=True)
            for item in found:
                print(f"{label}: {item}", flush=True)
    if differing:
        print(f"{differing} of {len(runs)} runs differ from {rev}")
        return 1
    print(f"all {len(runs)} runs identical to {rev}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
