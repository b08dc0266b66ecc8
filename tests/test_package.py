"""Package-level contracts: lazy loading of the verification suites and a
standard-library-only import graph."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import jacobilift

PACKAGE = Path(jacobilift.__file__).parent


def test_cli_import_leaves_verify_unloaded():
    code = (
        "import sys\n"
        "import jacobilift.cli\n"
        "assert 'jacobilift.verify' not in sys.modules, 'verify loaded by the CLI import'\n"
        "from jacobilift import run_suite\n"
        "assert 'jacobilift.verify' in sys.modules\n"
        "assert run_suite.__module__ == 'jacobilift.verify'\n"
    )
    src = str(PACKAGE.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path, PYTHONDONTWRITEBYTECODE="1")
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert run.returncode == 0, run.stderr


def test_all_names_resolve():
    assert "run_suite" in jacobilift.__all__
    for name in jacobilift.__all__:
        assert getattr(jacobilift, name) is not None
    for gone in ("GaussianInt", "RingMismatchError", "RingPromotionError",
                 "assembly_check_d4", "assembly_check_d8", "delta11_identity_check",
                 "delta_half_theta", "quotient_reduction_check", "siegel_theta_constant",
                 "theta_product_delta5_squared", "window_equal", "special_value_suite",
                 "xi06_torsion_values"):
        assert not hasattr(jacobilift, gone)


def test_imports_are_standard_library_only():
    checked = 0
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                assert name.split(".")[0] in sys.stdlib_module_names, f"{path.name} imports {name}"
                checked += 1
    assert checked > 10


def test_int_byte_conversions_name_length_and_byteorder():
    """Python 3.10 has no defaults for int.to_bytes(length, byteorder) and
    int.from_bytes(bytes, byteorder): every call in the package passes
    them, positionally or by keyword."""
    params = {"to_bytes": ("length", "byteorder"), "from_bytes": ("bytes", "byteorder")}
    checked = 0
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
                continue
            names = params.get(node.func.attr)
            if names is None:
                continue
            given = set(names[:len(node.args)]) | {kw.arg for kw in node.keywords}
            missing = [name for name in names if name not in given]
            assert not missing, f"{path.name}:{node.lineno} {node.func.attr} lacks {missing}"
            checked += 1
    assert checked >= 2  # the two in series._read_slots
