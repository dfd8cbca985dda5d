"""Public API surface tests: the imports the README promises."""

import pytest

import repro


def test_all_exports_resolve():
    for name in repro.__all__:
        assert getattr(repro, name) is not None, name


def test_version_present():
    assert repro.__version__


def test_subpackages_importable():
    import repro.api
    import repro.baselines
    import repro.blocking
    import repro.core
    import repro.data
    import repro.eval
    import repro.features
    import repro.incremental
    import repro.shard
    import repro.text
    import repro.utils  # noqa: F401


def test_facade_names_exist():
    # the curated top-level surface of the declarative/staged API
    from repro import (  # noqa: F401
        CandidateSet,
        ERPipeline,
        ERResult,
        FeatureMatrix,
        MatchSet,
        PipelineSpec,
        ResolutionSession,
        SpecError,
        load_spec,
        resolve,
    )


def test_api_package_all_resolves():
    import repro.api

    for name in repro.api.__all__:
        assert getattr(repro.api, name) is not None, name
        # everything repro.api curates is re-exported at top level
        assert name in repro.__all__, f"{name} missing from repro.__all__"


def test_readme_quickstart_names_exist():
    # the exact names used in README's quickstart snippet
    from repro import FeatureGenerator, ZeroER, load_benchmark  # noqa: F401
    from repro.blocking import TokenOverlapBlocker  # noqa: F401
    from repro.eval import precision_recall_f1  # noqa: F401


def test_import_repro_is_warning_free():
    # importing the package itself must not trip -W error::DeprecationWarning
    import subprocess
    import sys

    proc = subprocess.run(
        [sys.executable, "-W", "error::DeprecationWarning", "-c", "import repro"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr


def test_repro_unknown_attribute_raises():
    with pytest.raises(AttributeError):
        repro.no_such_name


def test_every_public_callable_has_docstring():
    import inspect

    missing = []
    for name in repro.__all__:
        obj = getattr(repro, name)
        if callable(obj) and not inspect.getdoc(obj):
            missing.append(name)
    assert not missing, f"undocumented public API: {missing}"
