"""The acceptance criterion: examples go through the API front door.

No example may call the legacy campaign entry point
(``measure_network``) directly -- measurement examples describe
workloads with ``repro.api`` instead. The §7 load-balancing example
calls :func:`repro.shadow.compare_systems`, whose measurement phase is
itself a ``repro.api`` campaign. Source-level check so a regression
cannot slip in silently.
"""

import pathlib

EXAMPLES = pathlib.Path(__file__).resolve().parents[2] / "examples"
LEGACY_CALLS = ("measure_network(",)


def test_examples_do_not_call_legacy_entry_points():
    sources = sorted(EXAMPLES.glob("*.py"))
    assert sources, "examples directory went missing?"
    offenders = []
    for path in sources:
        text = path.read_text()
        for legacy in LEGACY_CALLS:
            if legacy in text:
                offenders.append((path.name, legacy))
    assert not offenders, offenders


def test_measurement_examples_import_the_api():
    api_importers = {
        "quickstart.py",
        "full_network_measurement.py",
        "adversarial_relay.py",
    }
    for name in api_importers:
        text = (EXAMPLES / name).read_text()
        assert "from repro.api import" in text, name
