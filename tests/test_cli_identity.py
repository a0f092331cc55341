"""Byte-identity gate for the command line.

Each form is one argument vector run through ``cli.main`` in a scratch
directory that holds copies of the JSON fixtures plus a few generated
inputs, so every path the CLI echoes is a bare file name.  The digest of
a form is the sha256 of its argument vector, exit code, stdout, stderr
and the text of any ``--output`` file.  The forms cover every command
line the benchmark's ``cli`` workload runs on the fixtures, each
``--format`` where it is allowed and where it is refused, ``--output``,
and one form per error path.

Where argparse words the output itself (``--help``, an unknown
subcommand, a missing or invalid option), the wording differs between
Python versions.  Those forms are pinned byte for byte on the version the
digests were recorded with; on other versions the gate checks their exit
code and that the output is the JSON error or the help text.

Run the module as a script to print the digests.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

import pytest

from roughmatroids import cli

FIXTURES = Path(__file__).parent / "fixtures"
RECORDED_ON = (3, 11)

FORMS = {
    # the fixture command lines of the benchmark's cli workload
    "neighborhoods": ["neighborhoods", "cov_hex.json"],
    "approx": ["approx", "cov_hex.json", "--set", "{b,d,f}"],
    "definable": ["definable", "cov_hex.json"],
    "definable-set": ["definable", "cov_hex.json", "--set", "{a}"],
    "lattice-dot": ["lattice", "cov_hex.json", "--format", "dot"],
    "lattice-json": ["lattice", "cov_mixed4.json"],
    "check-matroid": ["check", "matroid", "cov_mixed4.json", "fam_missing_empty.json"],
    "check-rough-cov": ["check", "rough-cov", "cov_hex.json", "fam_hex_pass.json"],
    "check-rough-cov-fail": ["check", "rough-cov", "cov_hex.json", "fam_hex_fail.json"],
    "check-lower-cov": ["check", "lower-cov", "cov_mixed4.json", "fam_mixed4_pass.json"],
    "check-upper-cov": ["check", "upper-cov", "cov_mixed4.json", "fam_mixed4_fail.json"],
    "check-lower-rel": ["check", "lower-rel", "rel_4pt.json", "fam_rel4.json"],
    "check-upper-rel": ["check", "upper-rel", "rel_4pt_reflexive.json", "fam_rel4.json"],
    "check-matroid-cond": ["check", "matroid-cond", "cov_mixed4.json", "fam_mixed4_pass.json"],
    "uniform": ["uniform", "cov_hex.json", "--r", "2"],
    "uniform-proposition": ["uniform", "cov_mixed4.json", "--r", "1", "--proposition"],
    "direct-sum": ["direct-sum", "cov_sum_left.json", "fam_sum_left.json",
                   "cov_sum_right.json", "fam_sum_right.json"],
    "ci3prime": ["ci3prime", "cov_mixed4.json", "fam_mixed4_fail.json"],
    "extension-check": ["extension-check", "cov_hex.json", "--d1", "{e}", "--d2", "{a,d,f}",
                        "--element", "a"],
    "enumerate": ["enumerate", "cov_chain3.json"],
    "cross-check": ["cross-check", "cov_hex.json", "--seed", "7"],
    # more verdicts and options
    "check-matroid-rel": ["check", "matroid", "rel_4pt.json", "fam_rel4.json"],
    "check-matroid-i2": ["check", "matroid", "cov_hex.json", "fam_hex_pass.json"],
    "check-matroid-i3": ["check", "matroid", "cov_mixed4.json", "fam_i3.json"],
    "check-matroid-passes": ["check", "matroid", "cov_mixed4.json", "fam_matroid.json"],
    "check-matroid-cond-fail": ["check", "matroid-cond", "cov_mixed4.json",
                                "fam_mixed4_fail.json"],
    "uniform-strict": ["uniform", "cov_hex.json", "--r", "3"],
    "enumerate-start": ["enumerate", "cov_chain3.json", "--start", "5"],
    "cross-check-trials": ["cross-check", "cov_mixed4.json", "--seed", "3", "--trials", "5"],
    "extension-no-size-check": ["extension-check", "cov_hex.json", "--d1", "{a,d}", "--d2",
                                "{e}", "--element", "e"],
    "wide-universe-warning": ["neighborhoods", "cov_wide.json"],
    # formats that are allowed
    "lattice-dot-mixed4": ["lattice", "cov_mixed4.json", "--format", "dot"],
    "check-text-pass": ["check", "rough-cov", "cov_hex.json", "fam_hex_pass.json",
                        "--format", "text"],
    "check-text-fail": ["check", "rough-cov", "cov_hex.json", "fam_hex_fail.json",
                        "--format", "text"],
    "check-matroid-text": ["check", "matroid", "cov_mixed4.json", "fam_missing_empty.json",
                           "--format", "text"],
    "check-matroid-cond-text": ["check", "matroid-cond", "cov_mixed4.json",
                                "fam_mixed4_pass.json", "--format", "text"],
    "uniform-proposition-text": ["uniform", "cov_mixed4.json", "--r", "1", "--proposition",
                                 "--format", "text"],
    "ci3prime-text": ["ci3prime", "cov_mixed4.json", "fam_mixed4_fail.json",
                      "--format", "text"],
    "cross-check-text": ["cross-check", "cov_mixed4.json", "--seed", "1", "--trials", "3",
                         "--format", "text"],
    # formats that are refused
    "neighborhoods-text": ["neighborhoods", "cov_hex.json", "--format", "text"],
    "approx-dot": ["approx", "cov_hex.json", "--set", "{a}", "--format", "dot"],
    "definable-text": ["definable", "cov_hex.json", "--format", "text"],
    "lattice-text": ["lattice", "cov_hex.json", "--format", "text"],
    "check-dot": ["check", "lower-rel", "rel_4pt.json", "fam_rel4.json", "--format", "dot"],
    "uniform-text": ["uniform", "cov_hex.json", "--r", "2", "--format", "text"],
    "uniform-proposition-dot": ["uniform", "cov_mixed4.json", "--r", "1", "--proposition",
                                "--format", "dot"],
    "direct-sum-text": ["direct-sum", "cov_sum_left.json", "fam_sum_left.json",
                        "cov_sum_right.json", "fam_sum_right.json", "--format", "text"],
    "ci3prime-dot": ["ci3prime", "cov_mixed4.json", "fam_mixed4_fail.json", "--format", "dot"],
    "extension-check-text": ["extension-check", "cov_hex.json", "--d1", "{e}", "--d2",
                             "{a,d,f}", "--element", "a", "--format", "text"],
    "enumerate-dot": ["enumerate", "cov_chain3.json", "--format", "dot"],
    "cross-check-dot": ["cross-check", "cov_hex.json", "--seed", "7", "--format", "dot"],
    "refused-format-before-input": ["ci3prime", "rel_4pt.json", "missing.json",
                                    "--format", "dot"],
    # --output
    "output-lattice-dot": ["lattice", "cov_hex.json", "--format", "dot", "--output", "out.txt"],
    "output-check-fail": ["check", "rough-cov", "cov_hex.json", "fam_hex_fail.json",
                          "--output", "out.txt"],
    "output-direct-sum": ["direct-sum", "cov_sum_left.json", "fam_sum_left.json",
                          "cov_sum_right.json", "fam_sum_right.json", "--output", "out.txt"],
    # wrong structure kind
    "check-needs-relation": ["check", "lower-rel", "cov_mixed4.json", "fam_mixed4_pass.json"],
    "check-needs-covering": ["check", "rough-cov", "rel_4pt.json", "fam_rel4.json"],
    "uniform-on-relation": ["uniform", "rel_4pt.json", "--r", "1"],
    "ci3prime-on-relation": ["ci3prime", "rel_4pt.json", "fam_hex_pass.json"],
    "direct-sum-on-relation": ["direct-sum", "rel_4pt.json", "fam_rel4.json",
                               "cov_sum_right.json", "fam_sum_right.json"],
    "extension-on-relation": ["extension-check", "rel_4pt.json", "--d1", "{a}", "--d2",
                              "{a,b}", "--element", "b"],
    "enumerate-on-relation": ["enumerate", "rel_4pt.json"],
    "cross-check-on-relation": ["cross-check", "rel_4pt.json", "--seed", "1"],
    # universe mismatch, and which of two bad inputs is reported
    "universe-mismatch": ["check", "rough-cov", "cov_hex.json", "fam_mixed4_pass.json"],
    "mismatch-before-kind": ["check", "lower-rel", "cov_mixed4.json", "fam_hex_pass.json"],
    "direct-sum-mismatch-before-kind": ["direct-sum", "rel_4pt.json", "fam_rel4.json",
                                        "cov_sum_right.json", "fam_sum_left.json"],
    # unknown labels and other bad inputs
    "unknown-label-set": ["approx", "cov_hex.json", "--set", "{a,z}"],
    "unknown-label-element": ["extension-check", "cov_hex.json", "--d1", "{e}", "--d2",
                              "{a,d,f}", "--element", "z"],
    "element-outside-gap": ["extension-check", "cov_hex.json", "--d1", "{e}", "--d2",
                            "{a,d,f}", "--element", "e"],
    "invalid-json": ["definable", "bad.json"],
    "missing-file": ["neighborhoods", "missing.json"],
    # out-of-range flags
    "uniform-r-range": ["uniform", "cov_hex.json", "--r", "0"],
    # the upper bound r = n is in range and gives the whole definable family
    "uniform-strict-range": ["uniform", "cov_hex.json", "--r", "6"],
    "enumerate-jobs-zero": ["enumerate", "cov_chain3.json", "--jobs", "0"],
    "enumerate-start-range": ["enumerate", "cov_chain3.json", "--start", "33"],
    "enumerate-start-negative": ["enumerate", "cov_chain3.json", "--start", "-1"],
    "enumerate-base-zero": ["enumerate", "cov_chain3.json", "--max-family-base", "0"],
    "enumerate-base-over-scan-limit": ["enumerate", "cov_chain3.json",
                                       "--max-family-base", "21"],
    "enumerate-base-below-family": ["enumerate", "cov_hex.json", "--max-family-base", "4"],
    "cross-check-trials-zero": ["cross-check", "cov_hex.json", "--seed", "1", "--trials", "0"],
    "cross-check-trials-range": ["cross-check", "cov_hex.json", "--seed", "1",
                                 "--trials", "65537"],
}

# Forms whose output argparse words.
ARGPARSE_FORMS = {
    "missing-seed": ["cross-check", "cov_hex.json"],
    "unknown-subcommand": ["frobnicate", "cov_hex.json"],
    "unknown-format": ["neighborhoods", "cov_hex.json", "--format", "xml"],
    "unknown-check": ["check", "bogus", "cov_hex.json", "fam_hex_pass.json"],
    "non-integer-flag": ["uniform", "cov_hex.json", "--r", "two"],
    "help": ["--help"],
    "check-help": ["check", "--help"],
}

EXPECTED = {
    "approx": "8c2933196acf9845b146e4c9f1a70c5572c4e3e50febc6ce0c3f7e4907fe3d92",
    "approx-dot": "6c0423b3a814c70675b149de4977cd9f0ef31cd016714c4d3e8b0e6dedb043de",
    "check-dot": "1ec0080cdbb6bdbed07358d187cb3081db14e729973c4c6da6e304a1ebf903c2",
    "check-help": "36b36d1ddd05f44b718188bb6e0b0e3522e8510ee7342fd6cb05709645f5e83b",
    "check-lower-cov": "80005a63e85fbd98b5a9e40d3fd40590fbd3f426c0b83a6893a518faaac5c820",
    "check-lower-rel": "f8c9e3231a7f3e16ce5ebc09a42450ab2b2bb147d3f16bdc4effae1ccb928352",
    "check-matroid": "a254fa5960e0148dc85a7e74eadc357cb7d0c1e4dbc5fc03b13226c5db97630d",
    "check-matroid-cond": "6a2781c50d55f052772cc79ef1144b411b1866df671635d62efa66c7788ac718",
    "check-matroid-cond-fail": "24e2a416d4d308f801ced513ddab5a7022fae03940793a506bb3b52c2cba28de",
    "check-matroid-cond-text": "36cbd4b8f0baa9e214172f93ea4bc30c1eb75ca5f8e5c351721946afda828231",
    "check-matroid-i2": "5327b8df4ea807f7426480d7083b8c2b828af7c0e23976d6cdc220056d47d331",
    "check-matroid-i3": "1c3dda0c2e725ccac9a91b2d03b12f340596efb0c696a69c8e09e7523570603c",
    "check-matroid-passes": "40ae469b44c48bd88306e186e197d97dbf20afa6402358587d1184d8e3354fde",
    "check-matroid-rel": "c089375e247a442ed25668d7ab38c049f0720ff5eb0fb17a957c8f57d5b95e64",
    "check-matroid-text": "ee3f1191a7c5d708b65c103dac0133ceb6131a2ea3e31af54704387a49ac0f18",
    "check-needs-covering": "63a9f84bdedd861a0f506c89ac4fc00ab6892e65d009a3ff5078c5dec68b74d2",
    "check-needs-relation": "4ea6f9d23d0ace6d9356dd4b45061a9c7d7124fc39945add54f081ba0ea03757",
    "check-rough-cov": "fde0f9354c09ff246a7fe88ebc6b4bf6bf6431d15f9ef11a041d717027732528",
    "check-rough-cov-fail": "752ec03fb70218d083fd465927c0250b7b7edd3cb568e0f278b7e343322318e8",
    "check-text-fail": "dfb555e129cf4e1165cd6a207b5b06d0c229e1bf829fa779a0b3967f7dc0d913",
    "check-text-pass": "7c10f5b41ccfe2a97b94499e2a7a464018f4c68b52ba7a6a92b8d37c8e2b7413",
    "check-upper-cov": "69452772970c1219ab5684fb9b5acabdbbaf299192442d83848f0273882cf45c",
    "check-upper-rel": "64b414ca6fc173dd1f3024fbf6c2bc63d4a5261a695d11c0359374f5c2e30c30",
    "ci3prime": "21a698bdff0a74a4c61380213413618a5129bcdcf469775689dbb90eea9faf72",
    "ci3prime-dot": "223dc14697d750e7f751c20a885d814d72eadd81104cfbd861ef27337ac27880",
    "ci3prime-on-relation": "18447312cde36afbeaa332c2c88340945be65144757d821b753469a555ea4e3a",
    "ci3prime-text": "24932c162fe33e0aa0fcc8f125d613706048d4d6dc9c4bc77d997930af8ebce5",
    "cross-check": "019b6f98cbf7220e1f2c8b6045fded652d08c7f56ae862ae14203380ac72f22a",
    "cross-check-dot": "05ebb1e27769e21bcc360b47104eb72a7bd4cb8acba845a0765fba66f0d8e691",
    "cross-check-on-relation": "534ff5c5b3b4d4c99743fe436375bce004528d21837fc9b8fad2da16451988eb",
    "cross-check-text": "82bd3c8174edd76c98d6c427e552a3d63380f63d9180dcdac05461d07b334599",
    "cross-check-trials": "dd31f7c8e9d6a821cde0e7072ebf0f36a8816cbdc269868cb73d954c0a684dab",
    "cross-check-trials-range": "14a72ce2c6febbfa719009e29665cbd6804aa4522a92251a90b421b8515fed54",
    "cross-check-trials-zero": "121a4b040c229dc71c6dde3ea76faeef006837d9f1210761842feed5e3e4ab65",
    "definable": "ae1b6cba477cfdfdd69a1ecd64f09560beec17a2c86ed11effd1fac66a13cdee",
    "definable-set": "dba14bcd161e0fd3fa0d5696742d9cd86baf6e8f16435f8e44452e38d41a13ac",
    "definable-text": "97b6fffdb62933a4a4ebbfe99d0163974a035e9c4070cd5b9043c9e53a538a4a",
    "direct-sum": "369c20f83c47c5006e2af491ee34062fb996e19e30cad70315fbf9595cb0c185",
    "direct-sum-mismatch-before-kind": "57dbdad697d06d6517a75217465f09800d5a88e194b9c5cfd6c5c0034cbcaca6",
    "direct-sum-on-relation": "78adfcff90935663af37e69285f9d66c2421e898ffc3c4c0ee9003aa07a64df3",
    "direct-sum-text": "a80c9e1e073438411197d5073532dab71f4ba61716915d6d3ac05fe011425b94",
    "element-outside-gap": "9a4c286abc2ec693deb119a14315e58940529958dffd2c30212efa0fbf87c461",
    "enumerate": "eed398482e4684872e3e0a999820fa53863b85643ab54e0dd270e7ce06cc31e9",
    "enumerate-base-below-family": "95c7df45ec8a82492225458e4e38e97e41f7b4d1156662bb2d6c580e35dfce87",
    "enumerate-base-over-scan-limit": "14b62d0193aeeae976579418c7d05c143783672ae72ac67d5092a3a3b5753bfc",
    "enumerate-base-zero": "196cbc7efaff016785e6bfb1c022bfea17cc79971ee312e0134e929a597ab826",
    "enumerate-dot": "7f5af3ef2be096d88d76d71b2ba66c3bff34e6472ff4b4eff958ddf6c5896b8d",
    "enumerate-jobs-zero": "9dcf0482ed7a0b6e794dd321b2b16f40ea9cbd20de1ebba2aff61f24d011f97a",
    "enumerate-on-relation": "dc981b9edba5fae325b095e768308b7d992703d276c421d02b9362a4a4d469bd",
    "enumerate-start": "55a487bba0c872c94110298a28d8ceeabd6fe052811d49b067ff8a9bb127ac44",
    "enumerate-start-negative": "cff69353d3f332a8ce7d3e077ecc5a581f9417b3154943679b7d4c3a063323b8",
    "enumerate-start-range": "7425dca2136836fbc96754e8772ee765bc201be2d4922877696883918cca63dc",
    "extension-check": "0d43a45d0e948a794430641314e17d07f79a1749579cb240fc5cdf03c9a27cc5",
    "extension-check-text": "337e0725c4b036c8040e1f8f038de385c6f56573d20daa3114e10093ee0c3ec8",
    "extension-no-size-check": "a5aa238a0afbc315efbfb22230668c993fda8bb58cb942be98d61c2093bac6f1",
    "extension-on-relation": "4e4d00e406cf6b25ef1ef6eae66c3eaabe9628a36813bc0bcfd95abd3f29ffe1",
    "help": "dc0f3da0201b60ed4bae42af5225d2cc7aa644a97af108d23bf8a77e19e39c9d",
    "invalid-json": "55e2b3d5c5cfdeaccf31153d72b41ad586dc418e8cf4e766df7028738abdd427",
    "lattice-dot": "cd5faf1c3681ecfab6015028ef1cf0efc45a412546064c94fb2e60ef3f7d472c",
    "lattice-dot-mixed4": "8c0bdc82560b94b19a01e1fbf159764c61ed663b7b23b51e1231d071edeacda5",
    "lattice-json": "bddc22de8595cea36a544b75ed923268f0010fa09fdadfc519768675c97377a6",
    "lattice-text": "c20eac5286ff41c943138e56de1aa6960d57f68df41b2e234021cf84086dc484",
    "mismatch-before-kind": "88b8864c669205e9bde26508795febffc37ff03c9ac2d8f8d60d0291317ff11f",
    "missing-file": "aba57fac59649c15b571dcd02ef38f04f4fd726307d4aab2e74a583f80966044",
    "missing-seed": "91cf0b62439384de216b8e53f0099e3332b6f591bdbeca46fd10fdbc8af91c57",
    "neighborhoods": "0f533c3ce53a24341fac79873170fa904e20fa4c9d5dbf11ecb87229c02763e8",
    "neighborhoods-text": "61c4906c8248a69f0b51510a009f642c4011a109d2a8a1094b0342fcb4d8b402",
    "non-integer-flag": "58110eb2654a9dd6818d9d2f44d581d79d872295dd7222ce9ab882ab8bf80702",
    "output-check-fail": "391b70cd8d242bfa45876b521b86eef78a17dd7bfa1d80dba12c6f41fd389ea7",
    "output-direct-sum": "a4bf365341e65947406b4a014d785e3e583311d43b8b32983b1295f7fb868b16",
    "output-lattice-dot": "33961ba099cd86c10ec23507f6155a093ac8121397e3eff5ef26a45144a4fbf5",
    "refused-format-before-input": "b9af1fe51cebd62865857ec7c8fbff4ddfceb5d34795f181e2911f19fddd5b59",
    "uniform": "b0bff81db7b06ed26d337a7fe2a126bbe1d5c036ae559cae88a2e67d0ea0dbcc",
    "uniform-on-relation": "74f9a5cb4e54f886a93f0824c604bb2702a192816a83761a403793d7e93f7d7e",
    "uniform-proposition": "618758ee081834f0ea1f178015a3f3c419986eb2c63fe95cfa9825ce19b30b27",
    "uniform-proposition-dot": "b51f99cdcb1d0a5e8dcdb83c63525bb4c48c13de9e14344a56d1bcde201b1f3b",
    "uniform-proposition-text": "eafc11cb40f773555b2e8599341835a8758a8281d5f71c1697539b02ae661620",
    "uniform-r-range": "5ff6b9b1530e6507e3a7bb15582862338d5ac96e2c0fc5fa2ee58ab81cbe5f25",
    "uniform-strict": "b8e68a7b7ea51ecd5fd18d197c931635bdb74bf0e251352fa6ff84fb08cf81d9",
    "uniform-strict-range": "1d7f57db432673ee980f5f9f9c4fe9c7d976a9d45b73336496dc5ded38004d18",
    "uniform-text": "4cc29cc166e32c29d81073b002a3eaaddfb8ec105a0eaa76fa0a28151990e916",
    "universe-mismatch": "677bab94a2501eae27ccc39f1a463ec2e71b0b6f5f664f47c7abc50540ce0548",
    "unknown-check": "1e9c00d8667a5e21e32befcd1361a449fe3610ad5ebd27f28e08d889ac621578",
    "unknown-format": "c480b71a9950f85fd5b92f5e2b41c70afc41ca49260df91550cce369ace2a7c6",
    # a KeyError's message is printed without the quotes str() adds
    "unknown-label-element": "50a8b0da16f87d434a89b53f90916f620ad5a37d7e58c1bf796fdc0d9fa76edd",
    "unknown-label-set": "b4228b4aa7e94c40c9d3e717dd56f8b268986e1d96313aaeb191a7eb17734b68",
    "unknown-subcommand": "1f113f8c7ff06b00af33615405068e7b6001cf6e0ae68f7f72ff2770c3845f73",
    "wide-universe-warning": "059bd6b255ef29140778e22997ff4435d6f7668474388b7f0ddfe12a53cbeb5d",
}


def _write_inputs(work: Path) -> None:
    for path in FIXTURES.glob("*.json"):
        shutil.copy(path, work / path.name)
    labels = [f"x{i}" for i in range(21)]
    wide = {"universe": labels, "covering": [[lab] for lab in labels]}
    (work / "cov_wide.json").write_text(json.dumps(wide), encoding="utf-8")
    (work / "bad.json").write_text("{not json", encoding="utf-8")
    for name, family in (
        ("fam_i3.json", [[], ["a"], ["b"], ["c"], ["b", "c"]]),
        ("fam_matroid.json", [[], ["a"], ["b"], ["a", "b"]]),
    ):
        payload = {"universe": ["a", "b", "c", "d"], "family": family}
        (work / name).write_text(json.dumps(payload), encoding="utf-8")


def run_form(argv: list[str], work: Path) -> tuple[int, str, str, str | None]:
    """Exit code, stdout, stderr and the --output file's text of one run."""
    out_file = work / "out.txt"
    out_file.unlink(missing_ok=True)
    stdout, stderr = io.StringIO(), io.StringIO()
    cwd, columns = os.getcwd(), os.environ.get("COLUMNS")
    os.chdir(work)
    os.environ["COLUMNS"] = "80"
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main(list(argv))
    finally:
        os.chdir(cwd)
        if columns is None:
            del os.environ["COLUMNS"]
        else:
            os.environ["COLUMNS"] = columns
    written = out_file.read_text(encoding="utf-8") if out_file.exists() else None
    return code, stdout.getvalue(), stderr.getvalue(), written


def digest(argv: list[str], result: tuple) -> str:
    return hashlib.sha256(json.dumps([argv, *result]).encode()).hexdigest()


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli_identity")
    _write_inputs(path)
    return path


@pytest.mark.parametrize("name", sorted(FORMS))
def test_form_is_byte_identical_to_the_recorded_digest(name, work):
    argv = FORMS[name]
    assert digest(argv, run_form(argv, work)) == EXPECTED[name]


@pytest.mark.parametrize("name", sorted(ARGPARSE_FORMS))
def test_argparse_worded_form(name, work):
    argv = ARGPARSE_FORMS[name]
    result = run_form(argv, work)
    if sys.version_info[:2] == RECORDED_ON:
        assert digest(argv, result) == EXPECTED[name]
        return
    code, out, err, written = result
    assert written is None
    if "--help" in argv:
        assert (code, err) == (0, "") and out.startswith("usage: roughmatroids")
    else:
        assert (code, out) == (2, "")
        assert json.loads(err)["error"]["type"] == "usage"


def test_every_form_has_a_digest_and_the_exit_codes_are_all_seen(work):
    assert sorted(EXPECTED) == sorted(FORMS.keys() | ARGPARSE_FORMS.keys())
    codes = {run_form(argv, work)[0] for argv in FORMS.values()}
    assert codes == {0, 1, 2}


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        _write_inputs(Path(tmp))
        for name, argv in sorted({**FORMS, **ARGPARSE_FORMS}.items()):
            print(f'    "{name}": "{digest(argv, run_form(argv, Path(tmp)))}",')
