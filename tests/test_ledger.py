"""The whole claim registry in one `audit` run: its ledger bytes against
the benchmark's frozen digest, and every claim's entry against the same
entry from audits of claim subsets at 1 to 3 worker processes.  The
density claim checks the catalog's first ten records, whatever their
indices; the Guinand-Weil and counting claims are inconclusive where the
catalog or --t-max cannot supply the heights they count up to."""

import dataclasses
import hashlib
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from mbzero import claims as cl
from mbzero import cli
from mbzero import zerocensus as zc

# sha256 of the files that `audit --a 0.2 --e-max 60` writes from the zeta
# t <= 200 catalog; the ledger's is perfbench's variant-0 ledger digest
FULL_AUDIT_SHA256 = {
    "audit_ledger.json":
        "5aec04939028b74a84372dbb97ce5b834f5c85cf59efd65e261ad5e16d7ab7f8",
    "spacing_histogram.csv":
        "92b94b8098f2ad9fefc48cd1e276eaab5a46bb581da03a6d02593129feeb32e4",
    "pair_correlation.csv":
        "b49c10470f285c470af00d7b01662ca9331a4754874adcc72af864e359d4e2c9",
}
# every claim but the two that take over a second each
CHEAP_CLAIMS = [c for c in cl.REGISTRY
                if c not in ("mb_contour_shift", "density_peak_alignment")]

_FULL = {}  # file name -> bytes of the full audit, once it has run


def _audit(directory, catalog, flags) -> None:
    cache = str(directory / "zeta.txt")
    zc.catalog_store(cache, catalog)
    assert cli.main(["audit", "--a", "0.2", "--e-max", "60", *flags,
                     "--cache", cache, "--out", str(directory)]) == 0


def _full_audit(tmp_path_factory, catalog) -> dict:
    """The full audit's files, written in the first test that asks, so that
    its forks run under the conftest thread check."""
    if not _FULL:
        directory = tmp_path_factory.mktemp("full_audit")
        _audit(directory, catalog, ["--threads", "2"])
        _FULL.update((name, (directory / name).read_bytes())
                     for name in FULL_AUDIT_SHA256)
    return _FULL


def _entries(ledger: bytes) -> dict:
    return {e["claim_id"]: e for e in json.loads(ledger)["claims"]}


def test_full_audit_bytes_and_ids(tmp_path_factory, zeta_catalog_full):
    files = _full_audit(tmp_path_factory, zeta_catalog_full)
    for name, digest in FULL_AUDIT_SHA256.items():
        assert hashlib.sha256(files[name]).hexdigest() == digest, name
    ledger = json.loads(files["audit_ledger.json"])["claims"]
    ids = [e["claim_id"] for e in ledger]
    assert len(ids) == len(cl.REGISTRY)
    assert set(ids) == set(cl.REGISTRY)


@settings(max_examples=25, deadline=None)
@given(hst.lists(hst.sampled_from(CHEAP_CLAIMS), min_size=1, max_size=8,
                 unique=True),
       hst.integers(1, 3))
def test_entry_does_not_depend_on_companions_or_threads(
        tmp_path_factory, zeta_catalog_full, claims, threads):
    # node-set and Bessel-grid caches carry state from claim to claim
    # inside a worker; no entry may depend on it
    full = _entries(_full_audit(tmp_path_factory,
                                zeta_catalog_full)["audit_ledger.json"])
    directory = tmp_path_factory.mktemp("subset")
    _audit(directory, zeta_catalog_full,
           ["--claims", ",".join(claims), "--threads", str(threads)])
    subset = _entries((directory / "audit_ledger.json").read_bytes())
    assert set(subset) == set(claims)
    for claim_id, entry in subset.items():
        assert entry == full[claim_id], claim_id


def _entry(claim_id, catalog, flags=()) -> dict:
    config = cli.build_parser().parse_args(["audit", *flags])
    return cl.run_claim(config, catalog, claim_id).to_json_dict()


def test_density_claim_checks_the_first_ten_records_whatever_their_index(
        zeta_catalog_60):
    shifted = [dataclasses.replace(r, index=r.index + 100)
               for r in zeta_catalog_60]
    entry = _entry("density_peak_alignment", zeta_catalog_60)
    assert entry["verdict"] == "pass" and entry["abs_discrepancy"] > 0.0
    assert _entry("density_peak_alignment", shifted) == entry


def test_density_claim_without_an_ordinate_in_the_window_is_inconclusive(
        zeta_catalog_full):
    # the first ten records all lie above the grid's end at 60
    above = [r for r in zeta_catalog_full if r.ordinate > 60.0]
    entry = _entry("density_peak_alignment", above)
    assert entry["verdict"] == "inconclusive"
    assert "no catalog ordinate" in entry["notes"]


def test_guinand_weil_claim_needs_the_zero_below_its_top_energy(
        zeta_catalog_60):
    # its top energy 2 * 21.022 + 0.1 counts the zeros up to t = 21.072,
    # where the argument principle predicts 2: a catalog to t = 21.05
    # holds both, one to t = 20 or one without the zero at 14.13 does not
    for t_max in (21.05, 26.0):
        entry = _entry("guinand_weil_formula",
                       [r for r in zeta_catalog_60 if r.ordinate <= t_max])
        assert entry["verdict"] == "pass"
    for catalog in ([r for r in zeta_catalog_60 if r.ordinate <= 20.0],
                    zeta_catalog_60[1:]):
        entry = _entry("guinand_weil_formula", catalog)
        assert entry["verdict"] == "inconclusive"
        assert "zeros <= 21.072, the argument principle counts 2.000" \
            in entry["notes"]


@pytest.mark.parametrize("t_max", ["1", "5", "14"])
def test_counting_claim_below_its_window_is_inconclusive(zeta_catalog_60,
                                                         t_max):
    # T is drawn from [15, min(t_max, last ordinate + 2))
    entry = _entry("counting_rvm", zeta_catalog_60, ["--t-max", t_max])
    assert entry["verdict"] == "inconclusive"
    assert "which is empty" in entry["notes"]
