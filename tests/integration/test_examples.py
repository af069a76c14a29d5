"""Every shipped example must run cleanly end to end.

The examples double as the library's executable documentation; this
module keeps them from rotting.  Each example is run as a script (its
``if __name__ == "__main__":`` entry point included); its assertions
and prints are part of the check.
"""

import importlib.util
import pathlib
import runpy

import pytest

EXAMPLES_DIR = pathlib.Path(__file__).resolve().parents[2] / "examples"
EXAMPLES = sorted(p.stem for p in EXAMPLES_DIR.glob("*.py"))


def load_example(name):
    spec = importlib.util.spec_from_file_location(
        f"examples_{name}", EXAMPLES_DIR / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestExamplesInventory:
    def test_at_least_quickstart_plus_three(self):
        assert "quickstart" in EXAMPLES
        assert len(EXAMPLES) >= 4

    def test_each_example_documents_how_to_run(self):
        for name in EXAMPLES:
            text = (EXAMPLES_DIR / f"{name}.py").read_text()
            assert "Run:" in text, name
            assert 'if __name__ == "__main__":' in text, name


@pytest.mark.parametrize("name", EXAMPLES)
def test_example_runs(name, capsys):
    runpy.run_path(str(EXAMPLES_DIR / f"{name}.py"), run_name="__main__")
    out = capsys.readouterr().out
    assert out.strip(), f"{name} produced no output"


class TestExampleContent:
    def test_quickstart_prints_figure3_shape(self, capsys):
        load_example("quickstart").main()
        out = capsys.readouterr().out
        assert out.count("createSafeWriteBehindQueue") >= 2
        assert "harmful" in out

    def test_trace_tour_matches_paper_values(self, capsys):
        load_example("trace_analysis_tour").main()
        out = capsys.readouterr().out
        assert "(False, True)" in out   # label 5: unprotected write
        assert "(True, False)" in out   # label 6: writeable, protected
        assert "Ithis.x.o" in out

    def test_comparison_reproduces_headline(self, capsys):
        load_example("narada_vs_contege").main()
        out = capsys.readouterr().out
        assert "ConTeGe" in out and "Narada" in out
