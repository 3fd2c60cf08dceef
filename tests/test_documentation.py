"""Documentation consistency: what the docs promise must exist.

These tests parse DESIGN.md / README.md / EXPERIMENTS.md / docs/*.md and
verify that every referenced bench target, example script, and
``repro.…`` path is real — so documentation drift fails CI instead of
confusing users.
"""

import importlib
import re
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent

#: Every document whose backticked ``repro.…`` paths must resolve.
DOCUMENTS = ["README.md", "DESIGN.md", "EXPERIMENTS.md"] + sorted(
    f"docs/{path.name}" for path in (REPO / "docs").glob("*.md")
)


def read(name: str) -> str:
    return (REPO / name).read_text()


def resolve(dotted: str):
    """Import the longest module prefix of ``dotted``, then ``getattr``
    the rest; raises if any part is missing."""
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        name = ".".join(parts[:cut])
        try:
            target = importlib.import_module(name)
        except ModuleNotFoundError as exc:
            if exc.name != name:
                raise  # a real module failed to import something else
            continue
        for attr in parts[cut:]:
            target = getattr(target, attr)
        return target
    raise ModuleNotFoundError(dotted)


class TestDesignDocument:
    def test_every_bench_target_exists(self):
        targets = re.findall(r"`(benchmarks/bench_[a-z0-9_]+\.py)`", read("DESIGN.md"))
        assert targets, "DESIGN.md lists no bench targets?"
        for target in targets:
            assert (REPO / target).exists(), f"DESIGN.md references missing {target}"

    def test_every_bench_file_is_indexed(self):
        design = read("DESIGN.md")
        for path in sorted((REPO / "benchmarks").glob("bench_*.py")):
            if path.name.startswith("bench_perf"):
                continue  # substrate perf benches are not paper artifacts
            assert path.name in design, f"{path.name} missing from DESIGN.md index"


class TestDottedPaths:
    def test_every_repro_path_resolves(self):
        references = sorted(
            {
                (name, dotted)
                for name in DOCUMENTS
                for dotted in re.findall(r"`(repro(?:\.[A-Za-z_]\w*)+)", read(name))
            }
        )
        assert {name for name, _ in references} >= {"README.md", "DESIGN.md", "EXPERIMENTS.md"}
        missing = []
        for name, dotted in references:
            try:
                resolve(dotted)
            except (ImportError, AttributeError) as exc:
                missing.append(f"{name}: {dotted} ({exc})")
        assert not missing, "docs name repro paths that do not exist:\n" + "\n".join(missing)


class TestReadme:
    def test_listed_examples_exist(self):
        readme = read("README.md")
        for name in re.findall(r"`([a-z_]+\.py)`", readme):
            assert (REPO / "examples" / name).exists(), f"README lists missing example {name}"

    def test_quickstart_imports_resolve(self):
        import repro
        from repro import MeshNetwork, MesherConfig  # noqa: F401
        from repro.topology import line_positions  # noqa: F401

        assert hasattr(repro, "__version__")


class TestExperimentsDocument:
    def test_every_experiment_section_has_a_bench(self):
        experiments = read("EXPERIMENTS.md")
        ids = re.findall(r"^#+ (E\d+|F\d+|A\d+) ", experiments, flags=re.MULTILINE)
        assert len(set(ids)) >= 15, f"only {sorted(set(ids))} documented"
        benches = {p.name for p in (REPO / "benchmarks").glob("bench_*.py")}
        for exp_id in set(ids):
            prefix = f"bench_{exp_id.lower()}_"
            assert any(b.startswith(prefix) for b in benches), (
                f"{exp_id} documented in EXPERIMENTS.md but no {prefix}*.py bench"
            )

    def test_benches_referenced_by_backticks_exist(self):
        experiments = read("EXPERIMENTS.md")
        for name in re.findall(r"`(bench_[a-z0-9_]+\.py)`", experiments):
            assert (REPO / "benchmarks" / name).exists(), f"missing {name}"


class TestExamplesReadme:
    def test_examples_readme_covers_every_script(self):
        listing = read("examples/README.md")
        for path in sorted((REPO / "examples").glob("*.py")):
            assert path.name in listing, f"{path.name} missing from examples/README.md"
