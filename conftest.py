"""Repo-wide pytest plumbing, loaded by every run under the repository
(``tests/``, ``benchmarks/`` and ``benchmarks/e2e/`` alike)."""


def pytest_addoption(parser, pluginmanager):
    """Keep the ``timeout`` ini option valid without pytest-timeout.

    CI installs pytest-timeout so a wedged pool test cannot hang a run
    forever; local environments may not have it.  Registering the ini
    option ourselves when the plugin is absent means `pyproject.toml`
    can set a default timeout unconditionally (it is simply inert
    without the plugin) instead of warning about an unknown key.
    """
    if not pluginmanager.hasplugin("timeout"):
        parser.addini("timeout", "per-test timeout (needs pytest-timeout)",
                      default=None)
