"""Tests for the command-line front end.

The JSON output is the canonical machine format; every invocation with
fixed flags must be byte-identical across runs.  Exit codes: 0 all
checks pass, 1 a verification failed (with the failure records in the
report), 2 invalid flags or a brute-force cap hit.
"""

import ast
import hashlib
import importlib
import json
import os
from pathlib import Path
import subprocess
import sys
import time
import tracemalloc
import types
from unittest import mock

import pytest
from click.testing import CliRunner
from hypothesis import given, settings, strategies as st

import dsplitlevi
import dsplitlevi.cli as cli
from dsplitlevi import cliff, levi, torus
from dsplitlevi.arith import InputTooLarge
from dsplitlevi.cli import main, parse_grid


def invoke(*args):
    return CliRunner().invoke(main, list(args))


def run_json(*args):
    result = invoke(*args)
    assert result.exit_code == 0, result.output
    return json.loads(result.output)


class TestGridParsing:
    def test_single(self):
        assert parse_grid("4") == (4,)

    def test_span(self):
        assert parse_grid("2..5") == (2, 3, 4, 5)

    def test_list(self):
        assert parse_grid("5,3,3") == (3, 5)

    def test_mixed(self):
        assert parse_grid("1..2,4") == (1, 2, 4)

    @pytest.mark.parametrize("bad", ["", "abc", "3..1", "0", "2,,3", "-1"])
    def test_invalid(self, bad):
        with pytest.raises(ValueError):
            parse_grid(bad)

    def test_invalid_grid_is_usage_error(self):
        assert invoke("verify", "eq1", "--n", "abc").exit_code == 2
        assert invoke("verify", "eq1", "--n", "3..1").exit_code == 2

    def test_value_bound_is_counted_from_the_range_ends(self, monkeypatch):
        bound = cli.GRID_VALUE_BOUND
        assert len(parse_grid(f"1..{bound}")) == bound
        # Counted before any value is listed: no set is built.
        monkeypatch.setattr(cli, "set", self.no_set, raising=False)
        for text in (f"1..{bound + 1}", f"1..{bound},1", "1..100000000"):
            with pytest.raises(InputTooLarge, match=str(bound)):
                parse_grid(text)

    @staticmethod
    def no_set(*args):
        raise AssertionError("a grid past the bound was listed")


class TestLevis:
    def test_frozen_example(self):
        report = run_json("levis", "--n", "2", "--d", "4", "--q", "3")
        assert report["count"] == 2
        orders = {rec["order"] for rec in report["labels"]}
        assert orders == {51840, 10}

    def test_without_q_orders_are_null(self):
        report = run_json("levis", "--n", "2", "--d", "4")
        assert report["q"] is None
        assert all(rec["order"] is None for rec in report["labels"])

    def test_q_must_be_odd_prime_power(self):
        assert invoke("levis", "--n", "2", "--d", "4", "--q", "4").exit_code == 2
        assert invoke("levis", "--n", "2", "--d", "4", "--q", "15").exit_code == 2
        assert invoke("levis", "--n", "2", "--d", "4", "--q", "9").exit_code == 0

    def test_missing_required_flag(self):
        assert invoke("levis", "--n", "2").exit_code == 2

    def test_q_is_factored_once_per_command(self, monkeypatch):
        calls, prime_power = [], levi.prime_power

        def counted(q):
            calls.append(q)
            return prime_power(q)

        monkeypatch.setattr(levi, "prime_power", counted)
        levi.check_odd_prime_power.cache_clear()
        report = run_json("levis", "--n", "7", "--d", "1", "--q", "5")
        assert report["count"] > 1000
        assert calls == [5]
        # The cache keys on type as well: a float or bool equal to a
        # cached q is still refused (untyped, q=3.0 would hit q=3).
        check = levi.check_odd_prime_power
        assert check(3) == check(q=3) == (3, 1)
        with pytest.raises(ValueError):
            check(1)
        for bad in (3.0, True):
            with pytest.raises(ValueError):
                check(bad)
            with pytest.raises(ValueError):
                check(q=bad)

    def test_tsv_and_text_render(self):
        tsv = invoke("levis", "--n", "2", "--d", "4", "--format", "tsv")
        assert tsv.exit_code == 0
        lines = tsv.output.strip().splitlines()
        header = [l for l in lines if not l.startswith("#")][0]
        assert "I_minus1" in header.split("\t")
        text = invoke("levis", "--n", "2", "--d", "4", "--format", "text")
        assert text.exit_code == 0
        assert "count: 2" in text.output

    # sha256 of the stdout of ``levis --n N --d D --q Q --format F``, with
    # Q = (3, 5, 9)[N % 3] as in the benchmark's query mix, taken before
    # label shapes and orders were cached; the reports must not change.
    GOLDEN = {
        (5, 1, "json"):
            "5cd9c0d1339428eeedfe889a1a5499b0a504bcf07dc7b75547bc63f6a4f6cedf",
        (5, 1, "tsv"):
            "52571202e2369c4b9a899aa942466d46df39ca535062a3d6f359de9dbe4b75d0",
        (5, 1, "text"):
            "e20d256b37ef13446c790d93515cb58b0a70b96b0cc63ced0d43205396b4ec77",
        (5, 2, "json"):
            "d3aa65d1d99a228eaec43ebe8e04457c57452b38964bf087ecf6fa061d22520f",
        (5, 2, "tsv"):
            "a08104ff7d6fe0b435c36a4effcc78ff7484b7b1f099f1fb7dd2acd0961d3687",
        (5, 2, "text"):
            "66fa878896791d99a8f894a7bae89012c6bf17da0622d1892ee8cd6a36b863d9",
        (5, 3, "json"):
            "ec6473280926e1606d9170c2cc8c1ecf5353c04f228ac106120d1cc275a596a0",
        (5, 3, "tsv"):
            "2bbe724b5a0155cf05575880ba65b2934a2699d923e8369b8a9f86cf475accab",
        (5, 3, "text"):
            "dc41a8385a718e8eea3df0ed79f1bf5b8d72ca8a34a6c6845f818f440b3fedfd",
        (5, 4, "json"):
            "decf33d8d144ce3213fd3bf1af53293e75729f795097a82b2ba35cc9dd18bfff",
        (5, 4, "tsv"):
            "c08c134686c846bd89b6d111f5fc04a6e84dfa6c8887f5ffb71b2c64e953e186",
        (5, 4, "text"):
            "cf24038c26d203a5415509d7217a8f33dc182b80ea11913da6e3292c42c93b4d",
        (5, 6, "json"):
            "4ce717adafe43d23af45a0315f380649ee77db79afc4ae27830a507341ab2458",
        (5, 6, "tsv"):
            "89122f567a2a55110d01a4d1c20f9ebb1ec528cae830f6a9c104da61f5c0a88e",
        (5, 6, "text"):
            "aa0d84e162806eca4a37f55307067aaf193b830cfda66d0c27a2dfa90b449732",
        (6, 1, "json"):
            "22a15d8442a464172708d939704548cdca0ef4b1864d44f1055b3d317b976ca2",
        (6, 1, "tsv"):
            "936c8d50e034c67ff2b6b4f2e5d6be1e0fefee1cc46dc5caeb94c00793d0ec28",
        (6, 1, "text"):
            "4fa9a407e58f1fa6fd59df971da3893c519359c481c844a5cdeed387a89a2264",
        (6, 2, "json"):
            "46818342fc06585b8ab341713779fdf131de18e66b8a2dde99346d3c7fc26c61",
        (6, 2, "tsv"):
            "ed1372478c41a4848c04b47d58b52a2770418e46f0684261264c739953799679",
        (6, 2, "text"):
            "9997df1f8c67186d79239813589c2098918322360b5321fee953429a068760a1",
        (6, 3, "json"):
            "057a5e233b04eeb4af572b46326d8ba5b1c36d521182d0fe3645dc9a99c44843",
        (6, 3, "tsv"):
            "4e5fc20dd83a71a0a7b399bfc83ae5a10fc223880ea104cb60083cee9fd940b7",
        (6, 3, "text"):
            "b609cbd64dde0e2964c393384679cf173ccc05403494540acb4299d101a4b156",
        (6, 4, "json"):
            "0c8921f44312833044b9d096177fd760048e09ce5c123d9167fc55cd720b0275",
        (6, 4, "tsv"):
            "ed79b05fb3ea3222bf182c03952318a1336382dcebb5653cf3b963c19ef62e17",
        (6, 4, "text"):
            "667d0e914e0a42f9dd2fa1ac065389df5b600ff8c43fe94d90e8cbb82eda0f88",
        (6, 6, "json"):
            "1e46d9e8aeca6d616d404824a150aa7e905de4954a2f3dfc1b0725b547b18560",
        (6, 6, "tsv"):
            "0dd3ce42c26d73c838fa2f186efc036463d565313389834e275b3cd81bc34094",
        (6, 6, "text"):
            "9f660425e71ebc99879a13777800da98d2d73f5a8b2a79d187f0228a6a899861",
        (7, 1, "json"):
            "a589ea012fd1f6e8281ca943f29787c3b4401ca447a29347fba36eea7a4dc7eb",
        (7, 1, "tsv"):
            "0124301e0d71d129591cf527d45e380c2263d3ae265900a130c4197b097baeb2",
        (7, 1, "text"):
            "b77f8abfaf4a021873b042bdb5dcc04a13834276566a5f415202010aef6f3df7",
        (7, 2, "json"):
            "4dbe9702d6c59e38b9a8663d247770b18eb755d979f55f5cac6e48dddb7b118b",
        (7, 2, "tsv"):
            "a3e9d4409f9a3ccb7cffa69aef161232475e2d9ff369cbe5ceb6adb046b22715",
        (7, 2, "text"):
            "4ec51dcf60ac0d5f332dc9a3a602cb7a7847374ca0b6a202cd90913f24d87858",
        (7, 3, "json"):
            "8a58d8a3f5061a361f097292d6ea7c0fcdbc5460abd009232752be1746423109",
        (7, 3, "tsv"):
            "4b1dffe4d99b00d311a7888695be32eb391187a2d4e987e5435c25752af7b5e3",
        (7, 3, "text"):
            "1e258da47e527dc3f80d7f8c67e39f45985aa837c03c23d0c540425526b4dbf4",
        (7, 4, "json"):
            "1ae16dd8ac1390a7aa3079206fbdebdb248a674c6cca68c709bb4bb583aa5252",
        (7, 4, "tsv"):
            "7e5f31fc9120176563e953b664d8b67d045a098b928faa97ab1ee804b328c38d",
        (7, 4, "text"):
            "1474705e33e6424d53436cf24223d300f3a5bf04236959348bdd531602c3e3b8",
        (7, 6, "json"):
            "370d626554b4d23356d65ee10e2b803b877cf3df66d9e001c8bffade7f2bc300",
        (7, 6, "tsv"):
            "327905c0a56ec345a169c0c745f05c2f24b705b9ff9e456edbcb2a0c29917814",
        (7, 6, "text"):
            "18e7dcadbcba1f0c620ca1c6be008ea52e366bce0f5dca50240d7f67a7b57925",
    }

    @pytest.mark.parametrize("n", range(5, 8))
    def test_reports_match_golden_digests(self, n):
        q = (3, 5, 9)[n % 3]
        for d in (1, 2, 3, 4, 6):
            for fmt in ("json", "tsv", "text"):
                result = invoke("levis", "--n", str(n), "--d", str(d),
                                "--q", str(q), "--format", fmt)
                assert result.exit_code == 0, (n, d, fmt)
                digest = hashlib.sha256(result.stdout_bytes).hexdigest()
                assert digest == self.GOLDEN[n, d, fmt], (n, d, fmt)

    # sha256 of the stdout of ``levis --n 8 --d D --q 3 --format F``
    # (21,147 labels), taken before the labels were built from partition
    # templates; the reports must not change.
    GOLDEN_RANK_8 = {
        (1, "json"):
            "ba5939260e235f2aaecca3a87f0bc376929493a140884f48b80322267404ca6e",
        (2, "tsv"):
            "aa8b6168733484ab9416be4777f493cafb3ba55257964df45d38fbbb3ddbfda1",
    }

    @pytest.mark.parametrize("d, fmt", sorted(GOLDEN_RANK_8))
    def test_rank_8_reports_match_golden_digests(self, d, fmt):
        result = invoke("levis", "--n", "8", "--d", str(d), "--q", "3",
                        "--format", fmt)
        assert result.exit_code == 0
        digest = hashlib.sha256(result.stdout_bytes).hexdigest()
        assert digest == self.GOLDEN_RANK_8[d, fmt], (d, fmt)

    def test_report_reads_no_orbits(self, monkeypatch):
        # A levis row needs I, I_minus1 and t only: with every read of a
        # label's orbits raising, the report is still the pinned one,
        # and no label it wrote holds orbits.
        def unread(label):
            raise AssertionError("levis read the orbits of a label")
        labels, enumerate_labels = [], cli.enumerate_labels

        def kept(n, d):
            for lab in enumerate_labels(n, d):
                labels.append(lab)
                yield lab
        monkeypatch.setattr(levi.LeviLabel, "orbits", property(unread))
        monkeypatch.setattr(cli, "enumerate_labels", kept)
        result = invoke("levis", "--n", "5", "--d", "1", "--q", "9")
        assert result.exit_code == 0, result.exception
        digest = hashlib.sha256(result.stdout_bytes).hexdigest()
        assert digest == self.GOLDEN[5, 1, "json"]
        assert len(labels) == 203
        assert all(lab._orbits is None for lab in labels)

    @pytest.mark.parametrize("fmt", ["json", "tsv", "text"])
    def test_report_streams_in_bounded_memory(self, fmt):
        # 4,140 labels.  Holding every label, every record and the whole
        # rendered string peaked at 8.0-8.8 MiB.  Streaming holds one
        # chunk of records and the partition templates: 0.9-2.6 MiB with
        # the captured output, against 2.7-3.8 MiB when every label is
        # built before the first is written.
        tracemalloc.start()
        try:
            result = invoke("levis", "--n", "7", "--d", "1", "--q", "5",
                            "--format", fmt)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert result.exit_code == 0
        assert peak < 3 * 2 ** 20, peak


class TestRelweyl:
    def test_verified_labels(self):
        report = run_json("relweyl", "--n", "2", "--d", "4")
        assert report["pass"] is True
        assert all(rec["verified"] for rec in report["labels"])
        orders = {rec["order"] for rec in report["labels"]}
        assert orders == {4, 1}

    def test_no_check_leaves_null(self):
        report = run_json("relweyl", "--n", "3", "--d", "2", "--no-check")
        assert all(rec["verified"] is None for rec in report["labels"])
        assert report["pass"] is True

    # sha256 of the stdout of ``relweyl --n N --d D --format F``, taken
    # from the earlier implementation (Stab(Φ_L) by is_stable_under,
    # Q-set generators as products of w'_J and τ factors, cycle
    # notation by frozenset pairing); the reports must not change.
    GOLDEN = {
        (1, 1, "json"):
            "3d0008718264b4ec6a9061d5bd8d81b46af8fb9cdaa6a90e4ec469bc2eb5c256",
        (1, 1, "tsv"):
            "52c4bac18de0b3285888799796e3c9ab926d8e391dea4e704a1f6a59b434e264",
        (1, 1, "text"):
            "fc6a39f9ce9c6ccea9c444b402078bc205e4e1833dfb712813662010fddb9a59",
        (1, 2, "json"):
            "243a59751c449123e427730c12783dc2b8c3ef81bb41fdcb4ee4f6667696e5cd",
        (1, 2, "tsv"):
            "fb1e5858f25dbbc0e9a3da16fc217d84dbc0cb79a9dacb92c845ee650a8cca36",
        (1, 2, "text"):
            "b7e39ef107a2d335d3e0ccd517ce10530caf205ccc3045fdc5f1b6b783dbfc6a",
        (1, 3, "json"):
            "7d493b74eaeee515d4bb89a32d1350fb7135573b50da250322ccb4c5583c5105",
        (1, 3, "tsv"):
            "f65c83d7c48c6a13d7f60a682233a31fdcbb4f9216cbafae0028b836eb8d85a5",
        (1, 3, "text"):
            "9b4342183e0edc5697da8422baf3d2624492a368bc35f5162a84b9274297b4f6",
        (1, 4, "json"):
            "bf31d9743a51b8e5f25271abcab3ecd3d3cd65ceee2d2667c3b2c36728859a30",
        (1, 4, "tsv"):
            "58b2af57ec6b9e0f26e78ca59b589cec6475a00879eadce79224bcac4f58322b",
        (1, 4, "text"):
            "eb89c5df34ed8b2058e3db88699221c587a6504aa52d601f8a6d7efc66246854",
        (1, 6, "json"):
            "c24b64b90984cc099eaba363c3ed5de73cdf3c5f0cef84cd17e6a2cc5bfda715",
        (1, 6, "tsv"):
            "ada1cb57b3d57802f39315831bbfc3948cd345a721b533658f781c0505527102",
        (1, 6, "text"):
            "f3eb54eb803311ea8bbec9a4ac9261e91561d3e57d4d4fc1c9fbc025ede34c50",
        (2, 1, "json"):
            "f03ed47fa852d47625b120705ab91ecc37bb4d6c56b73284d72b2c3a6f786e8f",
        (2, 1, "tsv"):
            "fd8bd5ef806b45f9a04f7de1a7450d3c8428c7dbb3209de95b61e4f86621f2b4",
        (2, 1, "text"):
            "e32ee8e2bcd737cb6a81ff883229da1c475c59d7238897c2f50288513495c430",
        (2, 2, "json"):
            "103e677fd4adb91a446acd454fb77ad28e1fe3531ae2bdb2a36ab081e7a6363e",
        (2, 2, "tsv"):
            "6e70030ae71c0e8e0f49e80162999008053d5f06dc48bea5f307f3826883f580",
        (2, 2, "text"):
            "440f2ea021025f79eb89a6a91754f11a78650b792501e34b6958ad0d65578219",
        (2, 3, "json"):
            "c8417e131aa187101b8d78a24aaef02d50130db54f0bd80db063adea0f346e94",
        (2, 3, "tsv"):
            "cbe96e81c9a1bccb1e9a0f6bdc9bc4b0eb9b77ef71ed1371b4b766c93514abc0",
        (2, 3, "text"):
            "201d4adeb94d55b950a87247b34a1aa60e8a00fc348bb21b9a105fc2896f3a2f",
        (2, 4, "json"):
            "76cbf6f18af44024aa3cd69abad9ef47578271baa309cf40b7b7aa6c20db6c5b",
        (2, 4, "tsv"):
            "4e56dcfd8035f9df8a353a448dc85ad5995c2837308aba2add2ed6bb3cf9382e",
        (2, 4, "text"):
            "2e05d3f02874ed45845daa1c332fefa61c2ba4d6e24110337f43d92e9fb60cee",
        (2, 6, "json"):
            "3811a8804fd4d5f2d7bf92f36a5a03e7df4975d685eaa8f462990cdf0747f6c4",
        (2, 6, "tsv"):
            "1aad765e1c31dcb9c8ddd59a7706a4e82b482bb952101b7f60bf96b01ba89c36",
        (2, 6, "text"):
            "1b4981d4d6c3da9107e3179a55e863b54686edc028a56517c397fc12f159230c",
        (3, 1, "json"):
            "2558186a8d92ad91f7969ae3dbe0622b1417255f5ba12ea5f2e96c9e36bacec2",
        (3, 1, "tsv"):
            "d5ce68039a0464fe125c4276022de0fd6fdb725566fe0d3e0343b1850242e619",
        (3, 1, "text"):
            "7cff28c2ad3038be1964040d25c7f624c05f8440751aa9c4ad19e87c630d4016",
        (3, 2, "json"):
            "50f42a318b4242ef7e299d9591ed06f04fb24cdb46650de8ecc2cba609f6b047",
        (3, 2, "tsv"):
            "33185cf8aaf8d7ae04f23007d64e8adc3d911e22bbf3f0eb17417e5dd6d36952",
        (3, 2, "text"):
            "33e6a93d67752e3668dd53c00c47ed83d2f53eac8ee02d3c3b8665cc181aecc6",
        (3, 3, "json"):
            "2ef25f9992136ffec6ad39b0f9ce1071823225226056e7719e9b849db4be216e",
        (3, 3, "tsv"):
            "5afea4ba9115ef41c91d6a13d585bcfe8712adede7e8868f6c3b06db2d533101",
        (3, 3, "text"):
            "ecbbf25482934bd1f0815c0f6551e7e76aefcd5e6dc79da912814dfb01c10a5e",
        (3, 4, "json"):
            "9257c1349a4cda36cfb8efd64a9e01ec424a86d838ee5b0695501c97831fb0d8",
        (3, 4, "tsv"):
            "a1ed787cff7d1fc30f6585e8fc3fe3f250733383f916371b5d271e3355fc7fd4",
        (3, 4, "text"):
            "043a47edd3138e0ca6cdbe3671060fbf82b7965037d561daf2429e8d18bd88cb",
        (3, 6, "json"):
            "d2ed17e5d0f526b26375e277865f81b510e1a3201d99081e34c8b8d5dae4a932",
        (3, 6, "tsv"):
            "d0d43767a4554fa631bcb6f81ddf8f93fed55ba29f7f73529a415f4d59d127dd",
        (3, 6, "text"):
            "9be7752526fcf0d58e70a95a83ecfdcebb441aa5902d75516ec252d24bade6b7",
        (4, 1, "json"):
            "3b72c7a4a62f24cf2861b77f8a1cb130c16683e3e619f9d8638c6f135065edf8",
        (4, 1, "tsv"):
            "460b1f83f10e524a1c6513a8ebd14f5146b04e27da6a1651463837d8433091ea",
        (4, 1, "text"):
            "928285d94df88033e85bb4bd2baa5fb46783d3d103a717d85d5f98caaab5f5e0",
        (4, 2, "json"):
            "8a4b8720f75778046d1031743e522572fb22744e1295a9c268326f5a02197666",
        (4, 2, "tsv"):
            "7dff9b52b61c62bd848a77285ee144b18969b179b87466909aeac4efe761e33d",
        (4, 2, "text"):
            "ad8be6817b31e8e57e1d127fa46237e1bcefe954a377fc4aa237ac2f0e3bfad2",
        (4, 3, "json"):
            "0367a9daeed1e7dc74929d505b850a95764269f97a18213e1ef5c540bd9b64f9",
        (4, 3, "tsv"):
            "16facff96328a039cd6a9dd46a540f30e9d0bb50ed570db628a1df2baf405bfb",
        (4, 3, "text"):
            "fda7884389f73f25d9a611b133e6d7814dffc2acbceb0e1f6be8be0aad3b48b9",
        (4, 4, "json"):
            "f399702fb4943f995e6c920ba500fa2e8d2f675ab3d776ec75dc2f76da9ff46a",
        (4, 4, "tsv"):
            "a0369e9a522ac0040afc5b0d6d25c1114882deff5f9996571cdf55e4a4f60a5a",
        (4, 4, "text"):
            "00cf0dcfa0d8ceed17b351293fa34dc18220cec27290812070a25e531900bfd0",
        (4, 6, "json"):
            "2c2df8bd4faf9396e47ece08140a663f69706c22ff8fa97f72b4723876dedb29",
        (4, 6, "tsv"):
            "7bf2ffcd7269f1eddc2bd4625fd25162a31c10d973617ee05269adce71a9b5ae",
        (4, 6, "text"):
            "e7d297360aa258278dbc36311cf2c30597c4bf428a7c7c23fbfdacd0ced8e7ec",
    }

    @pytest.mark.parametrize("n", range(1, 5))
    def test_reports_match_golden_digests(self, n):
        for d in (1, 2, 3, 4, 6):
            for fmt in ("json", "tsv", "text"):
                result = invoke("relweyl", "--n", str(n), "--d", str(d),
                                "--format", fmt)
                assert result.exit_code == 0, (n, d, fmt)
                digest = hashlib.sha256(result.stdout_bytes).hexdigest()
                assert digest == self.GOLDEN[n, d, fmt], (n, d, fmt)

    # sha256 of the stdout of ``relweyl --n N --d D --no-check --format
    # F``, taken before Q-set generators and their cycle strings were
    # cached; the reports must not change.
    GOLDEN_NO_CHECK = {
        (5, 1, "json"):
            "1067c7fbd477b7e7efe086053facd42c2eff682dfdf89c95b47bd14fea25811a",
        (5, 1, "tsv"):
            "dd657f0bf9abcf06f2abb0ae3b83b07fc74642da4c5bfa2376a90f53d2227fbe",
        (5, 1, "text"):
            "6369a6e38eaa5a3bd44ee06ae1a837d984401c70b4fed9fac6e524864ba9341c",
        (5, 2, "json"):
            "e4042b79360144ba23fb9c327b0c4854aa5f46d6cdb00a7b605c79de0a66fdcd",
        (5, 2, "tsv"):
            "757cf374e602b5baf8e5496bbd596336ab08e58663733388c7df1237b7102a53",
        (5, 2, "text"):
            "d4c94c13d64dac87cbec8c990b011e588451a35d8e6d918c53233434b35624b6",
        (5, 3, "json"):
            "d105889e4376ed292b4e10bfad816b1029a7d3ace6bf23e2a50c5cd34dd3b0a7",
        (5, 3, "tsv"):
            "ff7df21c8eded816349a6cf707f58f34c46c54deb1a61f3f42ee8672b7303aae",
        (5, 3, "text"):
            "e55638455b858dcfdf9caae1dd6a49451f95e8512106c9901236523dcd982dba",
        (5, 4, "json"):
            "206be1db47c92a4a7c914f2e04e7c6a88931625a0fd134a174e84079703befcd",
        (5, 4, "tsv"):
            "c87bfe5a32466fc6aa0d0c584375d8f92a9cca57bc08255977938745bef3339d",
        (5, 4, "text"):
            "49aeb7f0f972d76dff830ceb130ca1c8c2e2d195055f4608cb7b0ae7a16511fe",
        (5, 6, "json"):
            "be47fdb75fac540ce991ce7f50685d49a5055a4f4fb719ca3a9088fb09c988e6",
        (5, 6, "tsv"):
            "e4e91fe6ed1141a4cd82375a37f9619811b5f16b2ee538091bd77d0343a3295a",
        (5, 6, "text"):
            "f2bff5b511e57e6dd1ad870c20c2f79255e4312a9687c18e2b6b26bc8601b310",
        (6, 1, "json"):
            "ad04983c82af22c25e9d0fa015a1ed3443142c2fd875439883e662a494db5300",
        (6, 1, "tsv"):
            "fbec47b5435e46931bca57f8eadfd2c2a8a13da667f5611f5fb4a6876f3f5222",
        (6, 1, "text"):
            "f4f91d31e179a00049e67f10664782755961f4d0ace5bfd3d7fc3ff33faf3b09",
        (6, 2, "json"):
            "b6a9f0ec47590c96fca15f9f3b725e3da9532ab97285e8d8d521a15a34096137",
        (6, 2, "tsv"):
            "9646101c6aa98a54eb54d63b8305f1b50d41746c5e03e38e3ce385ba52b828c7",
        (6, 2, "text"):
            "e0cbd9a1c700a70ce97bda83cf62d0a89819cd61da7bdb3273c910f626e15e96",
        (6, 3, "json"):
            "f8b8f45da046b0e679b6fa2eeabf2aa22876f488633fbdd6cb3e43f11a6e01cb",
        (6, 3, "tsv"):
            "6c6e18787ca33789b337317c6de3837243d7076b356b6d7bf4cb841347d2d1f8",
        (6, 3, "text"):
            "0380231533b811fc98fe72b5a1155109072ca0c87727e13d7a4a3224ebde5b56",
        (6, 4, "json"):
            "e68878f21821f72a75bb537bb78b3e162c77d509d5000623ecc8ebfd2528a944",
        (6, 4, "tsv"):
            "aa9fe8009d1b90a78dc83ab28cefb19a6a2fccf53fd22918f2b1b772eb70f81b",
        (6, 4, "text"):
            "192f794e561b736453db0231953b890650b29fef2001abab35e417118a999899",
        (6, 6, "json"):
            "02cee2ebbe7f02a36063349037b7fdb8eb59b86a3577e7930e2b830d5def1f8d",
        (6, 6, "tsv"):
            "b002adf04d5ef2d3bb75ce56a6783abcad076638f4e1c97c1b55d83add86fb72",
        (6, 6, "text"):
            "f326bd0648da16d6e3ba8782ac0de1031002ece2aad3003fe76cf09176e43f90",
    }

    # sha256 of the stdout of ``relweyl --n 7 --d 1 --no-check --format
    # json`` (4,140 labels), taken before the labels were built from
    # partition templates; the report must not change.
    GOLDEN_RANK_7 = (
        "a89874b6558d2780d42e534b7eef98bcd7735bee0a0f80cc198903d3a49e6b33")

    def test_unchecked_rank_7_report_matches_golden_digest(self):
        result = invoke("relweyl", "--n", "7", "--d", "1", "--no-check",
                        "--format", "json")
        assert result.exit_code == 0
        digest = hashlib.sha256(result.stdout_bytes).hexdigest()
        assert digest == self.GOLDEN_RANK_7

    @pytest.mark.parametrize("n", [5, 6])
    def test_unchecked_reports_match_golden_digests(self, n):
        for d in (1, 2, 3, 4, 6):
            for fmt in ("json", "tsv", "text"):
                result = invoke("relweyl", "--n", str(n), "--d", str(d),
                                "--no-check", "--format", fmt)
                assert result.exit_code == 0, (n, d, fmt)
                digest = hashlib.sha256(result.stdout_bytes).hexdigest()
                assert digest == self.GOLDEN_NO_CHECK[n, d, fmt], (n, d, fmt)

    def test_check_past_the_rank_limit_exits_2(self, monkeypatch):
        # The check walks the signed group of rank n, which must be
        # within the default closure cap: rank 5 (3840 elements) is
        # admitted, and rank 6 (46080) is refused before a label is
        # built instead of reporting an unchecked pass.
        class Admitted(Exception):
            pass

        def refuse(*args):
            raise Admitted
        monkeypatch.setattr(levi.LeviLabel, "__init__", refuse)
        monkeypatch.setattr(cli, "enumerate_labels", refuse)
        result = invoke("relweyl", "--n", "5", "--d", "1")
        assert isinstance(result.exception, Admitted)
        result = invoke("relweyl", "--n", "6", "--d", "1")
        assert result.exit_code == 2
        assert result.stdout == ""
        lines = result.stderr.splitlines()
        assert len(lines) == 1
        assert "rank 6" in lines[0] and "exceeds cap 20000" in lines[0]
        assert "--no-check" in lines[0]

    @staticmethod
    def unchecked(fmt, report):
        """A checked report with each verdict true read as null: the
        unchecked report, if every verdict was true."""
        if fmt != "tsv":
            return report.replace(b'"verified":true', b'"verified":null')
        lines = report.split(b"\n")
        for i, line in enumerate(lines):
            # verified is the last column; "# pass" is a head field.
            if line.endswith(b"\ttrue") and not line.startswith(b"#"):
                lines[i] = line[:-4] + b"null"
        return b"\n".join(lines)

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 6])
    def test_checked_rank_5_is_the_unchecked_report_verified(self, d):
        # Rank 5 is checked since its signed group fits the default
        # closure cap; the report is the pinned unchecked one with
        # every label verified.
        for fmt in ("json", "tsv", "text"):
            result = invoke("relweyl", "--n", "5", "--d", str(d),
                            "--format", fmt)
            assert result.exit_code == 0, (d, fmt)
            digest = hashlib.sha256(
                self.unchecked(fmt, result.stdout_bytes)).hexdigest()
            assert digest == self.GOLDEN_NO_CHECK[5, d, fmt], (d, fmt)


class TestVerify:
    def test_centralizers_small(self):
        report = run_json("verify", "centralizers", "--n", "2")
        assert report["pass"] is True and report["checked"] == 8

    def test_normalizers_small(self):
        report = run_json("verify", "normalizers", "--n", "1..2")
        assert report["pass"] is True
        # n=1: 1 partition * 2 flags; n=2: (2 blocks)*4 + (1 block)*2
        assert report["checked"] == 8

    def test_eq1_small(self):
        report = run_json("verify", "eq1", "--n", "2", "--d", "1..3")
        assert report["pass"] is True and report["checked"] == 15

    def test_extweyl_small(self):
        report = run_json("verify", "extweyl", "--n", "2", "--d", "1,4")
        assert report["pass"] is True

    def test_torus_small(self):
        report = run_json("verify", "torus", "--q", "3", "--d", "1..2")
        assert report["pass"] is True and report["checked"] == 8

    # sha256 of the stdout of ``verify SUITE ARGS --format F``, taken
    # before the brute-force oracles moved onto image tuples and the
    # Chevalley generators were cached; every report must stay the same.
    GOLDEN = {
        ("centralizers --n 2", "json"):
            "13e8b36de27570a0508ab924a9ff79bdc73cc95bba8e60bcd279967becbd05c4",
        ("centralizers --n 2", "tsv"):
            "e6895dd92d4aa8ad7a9e25a9a2c6fdac65251a903508c4e45bef6fc5affba886",
        ("centralizers --n 2", "text"):
            "167cb65b65223effb5dba33d63a5044942a89ede12934a33251ef2c03a1a8a42",
        ("centralizers --n 3", "json"):
            "83e31c6c04fc2d74d3f975690462fb5245aeeb51108a5c3c2e08ca7f216a59f9",
        ("centralizers --n 3", "tsv"):
            "b29e862efb3d8d1323885b6f82f1601ccdc7646f0b63045ef9a147fceb587545",
        ("centralizers --n 3", "text"):
            "80cacbf39a37d8fb35c85bec3661719662f89a010ecaeb03de26c5e5076f8569",
        ("normalizers --n 2", "json"):
            "ff9f80cd9a8cef3ac1ac9682affb88040750258e971b2f17a6fff53c93298d3e",
        ("normalizers --n 2", "tsv"):
            "b2b2b7cddfc4df5408449da0ee01f5ee09533c801fb5f150db8b3101a361db2c",
        ("normalizers --n 2", "text"):
            "97db9087153251f5b6961f1ef8cf17d4b25e987b5c4ce91654ee612e5423695d",
        ("normalizers --n 3", "json"):
            "5d617ab548f06f295750d4a706b666d800d60be5104f2435f7d3fe5e7d00bed3",
        ("normalizers --n 3", "tsv"):
            "98fe16f5edc8924aa665f2676af76a9ac69f5d8ca1ec97b67d7f5e9e8dc03b1d",
        ("normalizers --n 3", "text"):
            "8902319e897e1e465a030ae30d42809c6dada0eeb5815396869404d708899572",
        ("eq1 --n 2", "json"):
            "cdbe48b6c7149ede5f082c69acaa59f5ce0b4694b671e8d75502e893d9b462c2",
        ("eq1 --n 2", "tsv"):
            "51e5099341664d2d5b44fbca89316325915183e556a798c0899c168e73a41797",
        ("eq1 --n 2", "text"):
            "23ad19444b36ffc0e14e37aebd01d917d66d7cf8539f12bdd47e34dcae445a65",
        ("eq1 --n 3", "json"):
            "17848aed022d2a21d75d4840861056292a051d6473c21e56300a100dfb8cea63",
        ("eq1 --n 3", "tsv"):
            "d09f82081cf80951e77df2b7af9fa57b655c7e00dd46de59398f06d900262c8c",
        ("eq1 --n 3", "text"):
            "2b1ff6f7158eb77bdc13267602aac18e47fd9509d0ceba4b6b9b8132f71860c1",
        ("extweyl --n 2", "json"):
            "0e3496b2b9304b5feebb63505b60181e3c52d85eeb0f7bf65274e7d5214634a1",
        ("extweyl --n 2", "tsv"):
            "1d4978a6f81e48f862b4d8799eb82808caecf3651b0c16421072c18f953ddb9b",
        ("extweyl --n 2", "text"):
            "2de11c147a07bbdf26b6e39b4a7c8f2210f398797b577262b586982841be676e",
        ("extweyl --n 3", "json"):
            "15b75d9535084238bb92cd09338cd256fa0f4ca65f9b2e9a8bdb6beb6b8772b4",
        ("extweyl --n 3", "tsv"):
            "eec4c2602416dbb1105af5b300b24065d28acf04852c667cd9c5c2fa4978e02a",
        ("extweyl --n 3", "text"):
            "432d2577dbf31575fa7e1c81fa2d232e26016b41f668c7f820f34a94808d96c3",
        ("torus --q 3", "json"):
            "a8b2adf24f3a5f78a42c05c4a2efb2e456f7a0d185ddda26d54c488f95338b70",
        ("torus --q 3", "tsv"):
            "d0832fd47b9fc65e224392751f88b743debe6600d6eb0ad6786a22a03a1f54c0",
        ("torus --q 3", "text"):
            "df58371614df823304bb5641653de1ce90e5c14c3160c1c34a26b7c2f0164c5f",
        # Each suite's default grid, and eq1 at rank 5, taken before
        # character tables were keyed on group structure.
        ("centralizers", "json"):
            "ca11f649f1bc5c26e7654e45e46efedbd92a657604f342b20e5e8b5d3d06df13",
        ("centralizers", "tsv"):
            "08c41d78b09a2fd7e3a0ff938983fc841247275f0b1893bdb74d6a7e2988d91d",
        ("centralizers", "text"):
            "7f2bc64a914386eaaa92f79ea34ecba7b2432cac18bcc46f40304ec4307ad792",
        ("normalizers", "json"):
            "6a056438e760cd5597137989f45125feeaa14c58504a5b7bf98620519bcc4def",
        ("normalizers", "tsv"):
            "6907913bdfba5deccf0c32aa903769eb9f2b0cef90dc473d0a7f9569f0fa8496",
        ("normalizers", "text"):
            "345e0ba09caa59f1018adca027dda5075f2e53409f52d8fd4d3b1cd0f7ea2feb",
        ("extweyl", "json"):
            "46e2ca4b2335efb8aebd4570a0d3d09583d5802f078f6e80b8eb14d9810c19a5",
        ("extweyl", "tsv"):
            "fc5273686c06a55f6fa51bdb38ddfcd5b07fda6acc5a647abbbb5df4842d4149",
        ("extweyl", "text"):
            "afef2d087916e4ee818499d5d6156a9782e40a8fb41a6b819214ae3978642e19",
        ("eq1", "json"):
            "2011579a6e3850cf8b8723b76ab1bb02ab23d987bb0b3a3057994543c788c717",
        ("eq1", "tsv"):
            "0aab9cd584b88f7dfd7eaab3139277c3a519b08a7c0304c409b58a8d3b1781fa",
        ("eq1", "text"):
            "16aa843ece32b558eec642c4340ec76284cdd48030067fc1121ff79e0058466f",
        ("eq1 --n 5", "json"):
            "028824291feff5d530ac85a5ad1d4addebc33689151b52f161a71e8aad7adfbb",
        ("eq1 --n 5", "tsv"):
            "82d74816adae3a50a34e843996dd86511332b064db5b8295f5cbfa849d273fb0",
        ("eq1 --n 5", "text"):
            "826dcb4e6dfe3b8bde8e8209ce37bf7f8959ce25e7f3d969cf2dbc25840e71a6",
        # eq1 at rank 6, taken before the eigenspace test moved from a
        # vector class onto plain tuples.
        ("eq1 --n 6", "json"):
            "261c7c8f66eca3caad8bffd31c2cc08d66d0331d86ec41b597c3219380a5ca66",
    }

    @pytest.mark.parametrize("args, fmt", sorted(GOLDEN),
                             ids=lambda v: v.replace(" --", "-").replace(" ", ""))
    def test_reports_match_golden_digests(self, args, fmt):
        result = invoke("verify", *args.split(), "--format", fmt)
        assert result.exit_code == 0, (args, fmt)
        digest = hashlib.sha256(result.stdout_bytes).hexdigest()
        assert digest == self.GOLDEN[args, fmt], (args, fmt)

    def test_unknown_suite(self):
        assert invoke("verify", "nonsense").exit_code == 2

    def test_rejects_foreign_grid(self):
        assert invoke("verify", "torus", "--n", "2").exit_code == 2
        assert invoke("verify", "centralizers", "--d", "2").exit_code == 2

    def test_rejects_even_q(self):
        assert invoke("verify", "torus", "--q", "2..3").exit_code == 2

    @pytest.mark.parametrize("args", [
        ("eq1", "--n", "1", "--d", "1"),
        ("eq1", "--n", "1..5", "--d", "1..10"),
        ("extweyl", "--n", "1..3"),
    ], ids=["eq1", "eq1-wide", "extweyl"])
    def test_rank_one_grid_exits_2_before_work(self, args, monkeypatch):
        # Type C_n needs n >= 2: refused with one line, not a traceback.
        def refuse(*a):
            raise RuntimeError("work started")
        monkeypatch.setattr(cli, "build_root_system", refuse)
        result = invoke("verify", *args)
        assert result.exit_code == 2
        assert result.stdout == ""
        lines = result.stderr.splitlines()
        assert len(lines) == 1 and "--n >= 2" in lines[0]

    def test_failure_exits_one_with_record(self, monkeypatch):
        def broken(grids, cap):
            return 1, [{"n": 2, "detail": "synthetic"}]
        monkeypatch.setitem(cli.SUITES, "centralizers",
                            (broken, ("n",), {"n": (2,)}))
        result = invoke("verify", "centralizers")
        assert result.exit_code == 1
        report = json.loads(result.output)
        assert report["pass"] is False
        assert report["failures"] == [{"n": 2, "detail": "synthetic"}]


# Run in a fresh interpreter under ``python -O`` (asserts stripped): corrupt
# one input of a verification suite and report how the command ended.
_UNDER_O = """
import sys
from click.testing import CliRunner
from dsplitlevi import cli, extweyl, torus
from dsplitlevi.signedperm import SignedPerm

if sys.argv[1] == "extweyl":
    extweyl.wprime = lambda J, n: SignedPerm.identity(n)
    args = ["verify", "extweyl", "--n", "2", "--d", "2"]
elif sys.argv[1] == "z_plus":
    # z_plus's own check of its Lang image now fails.
    torus.lang_map = lambda h, orbit: h
    args = ["verify", "torus", "--q", "3", "--d", "1"]
else:
    torus._conj_action = lambda h: h
    args = ["verify", "torus", "--q", "3", "--d", "1"]
result = CliRunner().invoke(cli.main, args)
print(sys.flags.optimize, result.exit_code, type(result.exception).__name__)
print(result.output)
"""


class TestChecksUnderOptimize:
    def _run(self, suite):
        src = os.path.dirname(os.path.dirname(dsplitlevi.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-O", "-c", _UNDER_O, suite],
                              env=env, capture_output=True, text=True,
                              timeout=120, check=True)
        status, output = proc.stdout.split("\n", 1)
        return status.split(), output

    def test_corrupted_lift_raises(self):
        # c_1 no longer projects onto the replaced w'_J.
        status, _ = self._run("extweyl")
        assert status == ["1", "1", "VerificationError"]

    def test_torus_suite_reports_failed_exponent_check(self):
        status, output = self._run("torus")
        assert status == ["1", "1", "SystemExit"]
        report = json.loads(output)
        assert report["pass"] is False
        assert report["failures"][0]["check"] == "conjugation_exponents"

    def test_torus_suite_reports_failed_half_point_check(self):
        # A failed check inside z_plus is a failure record, not a
        # traceback, in each of the three checks that call z_plus.
        status, output = self._run("z_plus")
        assert status == ["1", "1", "SystemExit"]
        report = json.loads(output)
        assert report["pass"] is False
        assert [f["check"] for f in report["failures"]] == [
            "lang_of_half_point", "conjugation_exponents", "stabilizer_jump"]
        assert all("z_plus" in f["detail"] for f in report["failures"])

    def test_package_has_no_assert_statements(self):
        # python -O strips assert statements, and with them the check.
        found = []
        for path in sorted(Path(dsplitlevi.__file__).parent.glob("*.py")):
            tree = ast.parse(path.read_text(), filename=str(path))
            found += [f"{path.name}:{node.lineno}"
                      for node in ast.walk(tree)
                      if isinstance(node, ast.Assert)]
        assert found == []


def _tracing():
    """perfbench/tracing.py, loaded without importing perfbench."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    tracing = types.ModuleType("tracing")
    exec(compile(path.read_text(), str(path), "exec"), tracing.__dict__)
    return tracing


class TestTracedNames:
    def test_every_traced_name_resolves(self):
        # perfbench/tracing.py wraps these names by lookup, so deleting or
        # renaming one must fail here and not only in perfbench/selftest.py.
        # A name that resolves only as an import from another module would
        # be traced, and timed, under the wrong layer.
        tracing = _tracing()
        missing, misplaced = [], []
        for module, names in tracing.LAYERS.items():
            qualified = f"{tracing.PACKAGE}.{module}"
            mod = importlib.import_module(qualified)
            for name in names:
                try:
                    _, _, raw = tracing._originals(mod, name)
                except (AttributeError, KeyError):
                    missing.append(f"{module}.{name}")
                    continue
                # a click command is defined where its callback is
                if getattr(raw, "callback", raw).__module__ != qualified:
                    misplaced.append(f"{module}.{name}")
        assert missing == [] and misplaced == []

    def test_verify_torus_reaches_every_traced_torus_name(self, monkeypatch):
        # perfbench's selftest needs a span of each traced torus name on
        # the query_mix workload, which reaches torus only through this
        # one command.  Names bound in cli as well are counted there too.
        names = _tracing().LAYERS["torus"]
        calls = dict.fromkeys(names, 0)

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for name in names:
            if "." in name:
                cls, attr = name.split(".")
                owner = getattr(torus, cls)
                monkeypatch.setattr(owner, attr,
                                    counted(name, owner.__dict__[attr]))
                continue
            fn = getattr(torus, name)
            for module in (torus, cli):
                if getattr(module, name, None) is fn:
                    monkeypatch.setattr(module, name, counted(name, fn))
        assert invoke("verify", "torus", "--q", "3").exit_code == 0
        assert all(calls.values()), calls

    def test_label_reports_reach_the_traced_render_names(self, monkeypatch):
        # levis and relweyl encode most of a report once per shape, yet
        # perfbench's selftest still needs a span of each of these names
        # on query_mix, where they come only from such requests.
        homes = {"label_record": levi, "levi_structure": levi,
                 "canonical_json": cli, "render_tsv": cli,
                 "render_text": cli}
        calls = dict.fromkeys(homes, 0)

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for name, home in homes.items():
            fn = getattr(home, name)
            for module in (levi, cli):
                if getattr(module, name, None) is fn:
                    monkeypatch.setattr(module, name, counted(name, fn))
        renders = {"json": [], "tsv": ["render_tsv"], "text": ["render_text"]}
        for fmt, render in renders.items():
            for args, names in (
                    (("levis", "--n", "3", "--d", "1", "--q", "3"),
                     ["label_record", "levi_structure", "canonical_json"]),
                    (("relweyl", "--n", "2", "--d", "1"),
                     ["canonical_json"])):
                calls.update(dict.fromkeys(calls, 0))
                assert invoke(*args, "--format", fmt).exit_code == 0
                assert all(calls[name] for name in names + render), (
                    args, fmt, calls)


class TestLabelRows:
    """levis and relweyl hand the writers rows assembled from text
    encoded once per shape, subset, block or generator.  Each row must
    be the generic encoding of the label's dict record: canonical JSON
    in JSON and text, its cells under the sorted columns in TSV."""

    CASES = [(n, d) for n in range(1, 7) for d in (1, 2, 3, 4, 6)]

    @staticmethod
    def generic(fmt, rec):
        if fmt == "tsv":
            return "\t".join(cli._cell(rec[c]) for c in sorted(rec))
        return json.dumps(rec, sort_keys=True, separators=(",", ":"))

    @pytest.mark.parametrize("fmt", ["json", "tsv", "text"])
    def test_levis_rows_are_the_records(self, fmt):
        for n, d in self.CASES:
            for q in (None, 3, 5, 9):
                records = [levi.label_record(lab, q)
                           for lab in levi.enumerate_labels(n, d)]
                cols, rows = cli._levis_rows(
                    fmt, levi.enumerate_labels(n, d), q)
                assert cols == sorted(records[0])
                assert list(rows) == [self.generic(fmt, rec)
                                      for rec in records], (n, d, q)

    @pytest.mark.parametrize("fmt", ["json", "tsv", "text"])
    def test_relweyl_rows_are_the_records(self, fmt):
        for n, d in self.CASES:
            labels = list(levi.enumerate_labels(n, d))
            # Unchecked, and checked with both verdicts among the labels
            # of one shape.
            for verdicts in ([None] * len(labels),
                             [i % 3 != 1 for i in range(len(labels))]):
                entries = list(zip(labels, verdicts))
                records = [cli._relweyl_record(lab, v) for lab, v in entries]
                cols, rows = cli._relweyl_rows(fmt, entries)
                assert cols == sorted(records[0])
                assert list(rows) == [self.generic(fmt, rec)
                                      for rec in records], (n, d)


class TestNoSympy:
    """sympy cost most of the start-up of every command; the package's
    integer routines replace it, and it stays a test-only dependency."""

    def test_cli_import_loads_no_sympy(self):
        src = os.path.dirname(os.path.dirname(dsplitlevi.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        code = ("import sys, dsplitlevi.cli; print(sorted(m for m in "
                "sys.modules if m.split('.')[0] in ('sympy', 'mpmath')))")
        proc = subprocess.run([sys.executable, "-B", "-c", code], env=env,
                              capture_output=True, text=True, timeout=120,
                              check=True)
        assert proc.stdout.strip() == "[]"

    def test_package_does_not_import_sympy(self):
        found = []
        for path in sorted(Path(dsplitlevi.__file__).parent.glob("*.py")):
            tree = ast.parse(path.read_text(), filename=str(path))
            for node in ast.walk(tree):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom):
                    names = [node.module or ""]
                else:
                    continue
                found += [f"{path.name}:{node.lineno}" for name in names
                          if name.split(".")[0] == "sympy"]
        assert found == []


class TestCapExit:
    @pytest.mark.parametrize("args, cap", [
        (("verify", "normalizers", "--n", "2", "--cap", "3"), 3),
        (("kinva", "--n", "2", "--d", "1", "--cap", "2"), 2),
        (("chartab", "--group", "s4", "--cap", "5"), 5),
    ], ids=["verify", "kinva", "chartab"])
    def test_cap_hit_exits_2_with_one_line(self, args, cap, monkeypatch):
        # A memoized report needs no enumeration, so start from none.
        monkeypatch.setattr(cliff, "_KINVA_MEMO", {})
        result = invoke(*args)
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert result.stdout == ""
        lines = result.stderr.splitlines()
        assert len(lines) == 1 and f"exceeds cap {cap}" in lines[0]

    def test_below_the_cap_runs(self):
        assert run_json("chartab", "--group", "s4", "--cap", "24")["order"] == 24

    @pytest.mark.parametrize("args", [
        ("kinva", "--n", "2", "--d", "1"),
        ("verify", "extweyl", "--n", "2", "--d", "1"),
    ], ids=["kinva", "extweyl"])
    def test_memoized_run_respects_a_smaller_cap(self, args, monkeypatch):
        # Cold, kinva exceeds cap 2 and extweyl (V_2, order 32) cap 31.
        monkeypatch.setattr(cliff, "_KINVA_MEMO", {})
        cap = ("--cap", "2" if args[0] == "kinva" else "31")
        cold = invoke(*args, *cap)
        assert invoke(*args).exit_code == 0
        warm = invoke(*args, *cap)
        assert cold.exit_code == warm.exit_code == 2
        assert cold.stderr == warm.stderr and "exceeds cap" in warm.stderr


class TestSignedGroupBound:
    """verify centralizers|normalizers walk the signed group of every
    rank in the grid; the largest, of order 2^n n!, must be within the
    closure cap before any work starts."""

    class Admitted(Exception):
        pass

    def admitted(self, monkeypatch):
        def build(n):
            raise self.Admitted
        monkeypatch.setattr(cli, "signed_symmetric_group", build)

    @pytest.mark.parametrize("suite", ["centralizers", "normalizers"])
    def test_largest_rank_is_admitted(self, suite, monkeypatch):
        # n = 5: 3840 elements, under the default cap 20000.
        self.admitted(monkeypatch)
        result = invoke("verify", suite, "--n", "2..5")
        assert isinstance(result.exception, self.Admitted)

    @pytest.mark.parametrize("suite", ["centralizers", "normalizers"])
    def test_smallest_refused_rank_exits_2_at_once(self, suite, monkeypatch):
        # n = 6: 46080 elements; unchecked, centralizers alone would
        # take about 4·10^9 products.
        self.admitted(monkeypatch)
        start = time.perf_counter()
        result = invoke("verify", suite, "--n", "2..6")
        elapsed = time.perf_counter() - start
        assert result.exit_code == 2
        assert result.stdout == ""
        lines = result.stderr.splitlines()
        assert len(lines) == 1
        assert "rank 6" in lines[0] and "exceeds cap 20000" in lines[0]
        assert elapsed < 1.0

    @pytest.mark.parametrize("suite", ["centralizers", "normalizers"])
    def test_larger_cap_admits_rank_6(self, suite, monkeypatch):
        self.admitted(monkeypatch)
        result = invoke("verify", suite, "--n", "6", "--cap", "50000")
        assert isinstance(result.exception, self.Admitted)


class TestOrderCheck:
    """Each command that enumerates a group checks the order of the
    largest one against its cap before any work, one partial product
    at a time: a group of exactly the cap's order is admitted, one
    element more is refused, and a refusal takes under a second, with
    one stderr line and nothing on stdout, however large the group."""

    class Started(Exception):
        pass

    def sentinel(self, monkeypatch):
        """Raise Started wherever a group, root system or label would
        first be built."""
        def start(*args, **kwargs):
            raise self.Started
        for name in ("signed_symmetric_group", "build_root_system",
                     "enumerate_labels"):
            monkeypatch.setattr(cli, name, start)
        monkeypatch.setattr(levi.LeviLabel, "__init__", start)

    def test_at_the_cap_runs(self):
        # The signed group of rank 3 has 2^3 3! = 48 elements, and every
        # group kinva builds at rank 3 lies inside it, so no cap is hit
        # midway.
        result = invoke("verify", "centralizers", "--n", "3", "--cap", "48")
        assert result.exit_code == 0, result.output
        report = run_json("kinva", "--n", "3", "--d", "1", "--cap", "48")
        assert report["pass"] is True
        assert report["checked"] == report["candidates"] > 0

    @pytest.mark.parametrize("args", [
        ("verify", "centralizers", "--n", "3"),
        ("kinva", "--n", "3", "--d", "1")], ids=["centralizers", "kinva"])
    def test_one_below_the_cap_exits_2_before_work(self, args, monkeypatch):
        self.sentinel(monkeypatch)
        result = invoke(*args, "--cap", "47")
        assert result.exit_code == 2
        assert result.stdout == ""
        lines = result.stderr.splitlines()
        assert len(lines) == 1
        assert "rank 3" in lines[0] and "exceeds cap 47" in lines[0]

    def test_kinva_larger_cap_admits_rank_6(self, monkeypatch):
        self.sentinel(monkeypatch)
        result = invoke("kinva", "--n", "6", "--d", "1", "--cap", "50000")
        assert isinstance(result.exception, self.Started)

    @pytest.mark.parametrize("args, group, cap", [
        # 2^1500 1500! has over 4,300 digits: formatting it would fail.
        (("verify", "centralizers", "--n", "1500"),
         "signed group of rank 1500", 20000),
        (("verify", "extweyl", "--n", "15", "--d", "16"),
         "diagonal group of rank 15", 20000),
        (("verify", "extweyl", "--n", "40", "--d", "1"),
         "diagonal group of rank 40", 20000),
        (("kinva", "--n", "6", "--d", "1"), "signed group of rank 6", 10000),
        (("relweyl", "--n", "6", "--d", "1"),
         "signed group of rank 6", 20000),
    ], ids=["centralizers-1500", "extweyl-15-16", "extweyl-40-1",
            "kinva-6", "relweyl-6"])
    def test_refused_at_once(self, args, group, cap, monkeypatch):
        self.sentinel(monkeypatch)
        start = time.perf_counter()
        result = invoke(*args)
        elapsed = time.perf_counter() - start
        assert result.exit_code == 2, result.exception
        assert result.stdout == ""
        lines = result.stderr.splitlines()
        assert len(lines) == 1
        assert group in lines[0] and f"exceeds cap {cap}" in lines[0]
        assert elapsed < 1.0

    def test_extweyl_checks_every_extended_weyl_group(self, monkeypatch):
        # The diagonal group of rank 5 has 32 elements, but V_5, of
        # order 4^5 5! = 122880, is past the default cap.
        self.sentinel(monkeypatch)
        result = invoke("verify", "extweyl", "--n", "5", "--d", "1..2")
        assert result.exit_code == 2
        assert result.stdout == ""
        lines = result.stderr.splitlines()
        assert len(lines) == 1
        assert "V_5 exceeds cap 20000" in lines[0]
        result = invoke("verify", "extweyl", "--n", "5", "--d", "3")
        assert isinstance(result.exception, self.Started)


class TestInputBounds:
    """Inputs past a documented bound exit 2 with one line naming it,
    before any factorisation or field table starts."""

    @staticmethod
    def refuse(*args):
        raise RuntimeError("work started")

    def _exit_2_naming(self, args, bound):
        result = invoke(*args)
        assert result.exit_code == 2
        assert result.stdout == ""
        lines = result.stderr.splitlines()
        assert len(lines) == 1 and bound in lines[0]

    @pytest.mark.parametrize("command", [
        ("levis", "--n", "2", "--d", "4"), ("verify", "torus")],
        ids=["levis", "verify-torus"])
    def test_q_bound(self, command, monkeypatch):
        monkeypatch.setattr(levi, "prime_power", self.refuse)
        self._exit_2_naming(command + ("--q", str(2 ** 64 + 1)), "2^64")

    def test_lang_tuple_bound(self, monkeypatch):
        # q=9, d=4 would enumerate (9^4 - 1)^2, about 43M tuples.
        monkeypatch.setattr(cli, "lang_map", self.refuse)
        monkeypatch.setattr(cli, "lang_logs", self.refuse)
        self._exit_2_naming(("verify", "torus", "--q", "3,9", "--d", "4"),
                            str(cli.LANG_TUPLE_BOUND))

    @pytest.mark.parametrize("command", [
        ("levis", "--n", "10", "--d", "1"),
        ("levis", "--n", "20", "--d", "4"),
        ("relweyl", "--n", "10", "--d", "1", "--no-check")],
        ids=["levis-d1", "levis-d4", "relweyl"])
    def test_label_count_bound(self, command, monkeypatch):
        # Bell(11) = 678570 labels, past the bound.
        monkeypatch.setattr(levi.LeviLabel, "__init__", self.refuse)
        self._exit_2_naming(command, str(levi.LABEL_COUNT_BOUND))

    @pytest.mark.parametrize("command", [
        ("levis", "--n", "100000", "--d", "1"),
        ("relweyl", "--n", "100000", "--d", "1", "--no-check")],
        ids=["levis", "relweyl"])
    def test_huge_rank_is_refused_at_once(self, command, monkeypatch):
        # The Bell triangle stops at the first number past the bound; in
        # full it would take hours at n = 100000.
        monkeypatch.setattr(levi.LeviLabel, "__init__", self.refuse)
        start = time.perf_counter()
        self._exit_2_naming(command, str(levi.LABEL_COUNT_BOUND))
        assert time.perf_counter() - start < 0.5

    @pytest.mark.parametrize("d", ["1", "3"])
    def test_eq1_pair_bound(self, d, monkeypatch):
        # Rank 10 has Bell(11) = 678570 concrete pairs; no --d admits it.
        monkeypatch.setattr(cli, "_concrete_pairs", self.refuse)
        monkeypatch.setattr(cli, "build_root_system", self.refuse)
        self._exit_2_naming(("verify", "eq1", "--n", "2,10", "--d", d),
                            str(levi.LABEL_COUNT_BOUND))

    @pytest.mark.parametrize("args", [
        ("--n", "8"), ("--n", "8", "--d", "2..5"),
        ("--n", "2..9", "--d", "1")], ids=["n8", "n8-d2", "n2-9-d1"])
    def test_eq1_pairs_at_d0_1_bound(self, args, monkeypatch):
        # Bell(9) = 21147 pairs at n = 8 for each of d = 1 and 2, and
        # Bell(10) = 115975 at n = 9, which the label bound admits.
        monkeypatch.setattr(cli, "_concrete_pairs", self.refuse)
        monkeypatch.setattr(cli, "build_root_system", self.refuse)
        monkeypatch.setattr(cli, "check_eq1", self.refuse)
        self._exit_2_naming(("verify", "eq1") + args,
                            str(levi.EQ1_PAIR_BOUND))

    @pytest.mark.parametrize("args", [
        ("--n", "7"), ("--n", "8", "--d", "3..8")],
        ids=["n7", "n8-d0-above-1"])
    def test_eq1_admits_grids_within_the_pair_bound(self, args, monkeypatch):
        # 2 * Bell(8) = 8280 pairs at n = 7; no pair at d0 = 1 for d >= 3.
        monkeypatch.setattr(cli, "build_root_system", self.refuse)
        result = invoke("verify", "eq1", *args)
        assert isinstance(result.exception, RuntimeError)

    def test_grid_value_bound(self, monkeypatch):
        monkeypatch.setattr(cli, "signed_symmetric_group", self.refuse)
        start = time.perf_counter()
        self._exit_2_naming(
            ("verify", "centralizers", "--n", "1..100000000"),
            str(cli.GRID_VALUE_BOUND))
        assert time.perf_counter() - start < 0.5

    def test_field_order_bound(self, monkeypatch):
        monkeypatch.setattr(torus, "FqElem", self.refuse)
        self._exit_2_naming(("verify", "torus", "--q", "3", "--d", "100"),
                            str(torus.FIELD_ORDER_BOUND))


class TestClosedPipe:
    def test_reader_closing_early_ends_with_sigpipe_status(self):
        # 141 = 128 + SIGPIPE, as a shell reports a writer killed by it;
        # 1 would claim a failed check.
        src = os.path.dirname(os.path.dirname(dsplitlevi.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.Popen(
            [sys.executable, "-m", "dsplitlevi.cli", "levis", "--n", "8",
             "--d", "1", "--format", "text"],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        try:
            assert len(proc.stdout.read(100)) == 100
            proc.stdout.close()
            assert proc.wait(timeout=120) == 141
            assert proc.stderr.read() == b""
        finally:
            proc.kill()
            proc.stderr.close()


class TestKinva:
    def test_full_sweep_small(self):
        report = run_json("kinva", "--n", "2", "--d", "4")
        assert report["pass"] is True
        assert report["checked"] == report["candidates"] == 14
        assert report["failures"] == []

    def test_random_sample_is_seeded(self):
        a = invoke("kinva", "--n", "2", "--d", "4", "--random", "3",
                   "--seed", "11")
        b = invoke("kinva", "--n", "2", "--d", "4", "--random", "3",
                   "--seed", "11")
        assert a.exit_code == b.exit_code == 0
        assert a.output == b.output
        report = json.loads(a.output)
        assert report["checked"] == 3 and report["random"] == 3

    def test_full_reports_embedded(self):
        report = run_json("kinva", "--n", "2", "--d", "8", "--full")
        assert report["checked"] > 0
        assert len(report["reports"]) == report["checked"]
        assert all(r["pass"] for r in report["reports"])

    def test_wmax_filters(self):
        small = run_json("kinva", "--n", "2", "--d", "1", "--wmax", "1")
        big = run_json("kinva", "--n", "2", "--d", "1")
        assert small["candidates"] < big["candidates"]

    def test_rank_bound(self, monkeypatch):
        # Every group the checks build lies inside the signed group of
        # rank n, which must be within the cap: at the default cap 10000
        # rank 5 (3840 elements) is admitted and rank 6 (46080) exits 2
        # before a label is enumerated.
        class Admitted(Exception):
            pass

        def admit(*args):
            raise Admitted
        monkeypatch.setattr(cli, "enumerate_labels", admit)
        result = invoke("kinva", "--n", "5", "--d", "1")
        assert isinstance(result.exception, Admitted)
        result = invoke("kinva", "--n", "6", "--d", "1")
        assert result.exit_code == 2
        lines = result.stderr.splitlines()
        assert len(lines) == 1
        assert "rank 6" in lines[0] and "exceeds cap 10000" in lines[0]

    def test_search_runs_once_per_concrete_input(self, monkeypatch):
        # kinva --n 4 --d 1 checks 3,536 labels of 440 structures, which
        # have 107 keys: the groups and the search run once for each,
        # from an empty memo.
        monkeypatch.setattr(cliff, "_KINVA_MEMO", {})
        searches = []
        search = cliff._kinva_search

        def counted(*args):
            searches.append(args)
            return search(*args)

        monkeypatch.setattr(cliff, "_kinva_search", counted)
        assert run_json("kinva", "--n", "4", "--d", "1")["checked"] == 3536
        assert len(searches) == len(cliff._KINVA_MEMO) == 107

    # sha256 of the stdout of ``kinva --n N --d D --full``, taken before
    # the reports were memoized on one key; the reports must not change.
    GOLDEN = {
        (1, 1):
            "8bc607620ceb288b5340cd2b1f047dafd9a41c2508d82803d2dc2f696d3bf109",
        (1, 2):
            "f44644f55d2e85d1e53534baa2ca5e447ca176aeb5ba8a94fe2852c01dc646e9",
        (1, 3):
            "f6cd8050109a9b15dfa1bacc6e291e299ff1bc6fe824913a3e5f47441b2f4429",
        (1, 4):
            "673d02469e9749dd32ba2184c796757b8981d31fb45266e5099e6f8752414991",
        (1, 5):
            "8b95ea624f61600d4e02a5a759b76a3972a9d69a9281a90f093f8cb6995ba5c5",
        (1, 6):
            "af23623b08d9cba3d23cbb01ca25a78fac50670d5b23facbc46b93860d92cce3",
        (1, 7):
            "4a2977bce3fe77f44dae870da0b57f664eeb01df76ccaacd55964806e2eed062",
        (1, 8):
            "50e4f79f5237f7276e003df678f523669fb47cc3a30166671f7276cff2308f97",
        (2, 1):
            "29405a27b8ad8ae0aa8b8bafb6551a43f04a965b563a56f5a9e67a88da44cbef",
        (2, 2):
            "e3dd77c76121e24b4d250823a60589242f927634def3fa3bdd8c4486c5943901",
        (2, 3):
            "dc4b822b339372cb9fb78d8645230b883be804326f241cd27493f9b0d1914bd5",
        (2, 4):
            "1b09d2b7b807801c3483d04a2c5f6fefc2a89493aeeba23dd369ffd3d50477ea",
        (2, 5):
            "12cccc44eb3cf37fc263bd738241d7ed8a284f45fdf8bcfb8217667160ac6505",
        (2, 6):
            "79a477c3a289abe94c54dd20fbceee78c496d13ef9f4a743390c04d7904f7335",
        (2, 7):
            "50df7bddbddc7c207199cbec8fbcff0dd79f7f4ceb91bd7bc295fbdbd76410dd",
        (2, 8):
            "943e2c374aeaf30ea5ff935e119d6c4c41e88b69573787c84c05ede4c787e225",
        (3, 1):
            "45d069a21e40c9a07a1fd34ab4e23e98efdfcda858e8eb5947ae9c0f2a4dff5c",
        (3, 2):
            "03ac5dbc8a0ed6afadf7f533f3f6e3dbf64ff43c8e986362c336c71d2978f8b4",
        (3, 3):
            "a257a03368e1e7225f219528688a807573df4a7addf418b754280ee47233cce6",
        (3, 4):
            "5beca3bac0f53b2bae59cce7de5b54bf133336f4c8444acc165275e05432512d",
        (3, 5):
            "f61cbfe4b5f97c65bbd42277f8b8eee4a62980c634e72471eca51fe778775d96",
        (3, 6):
            "da2dd8748b6005ee1f94192a9485e6f64197d35f713a5dc0b101c43db93c5712",
        (3, 7):
            "d623086a62429c43a1836d3658cd6e603dfdf07ade2597f6adfd7b1441312535",
        (3, 8):
            "800ab940f40250ba9aa4ddb61cfa05230103817df8af3c308b42a568ae590b62",
        (4, 1):
            "3a8b419f2bcdf7433f801d0f6c144058fd4b860c284fcfd0f07c5fe3874afe09",
        (4, 2):
            "cfed13bbebdf98a6127c1677b49bd191cb8c3d0b9eaff84d766d6dd9a1631df6",
        (4, 3):
            "e368b7b4fc4ad8178db9e89b8fe001495bded557ea2edc2f550173b5a4569e08",
        (4, 4):
            "8ffe869a0df7e4839b4e8b7f0bc0d79e677028da3d37b9d8e850250bc64f700b",
        (4, 5):
            "8712d0957de2d9c349c9d56520b910703a7b4f1d19e1013bc39d844b0a921007",
        (4, 6):
            "ab2632027e56a43574917400f3543b71004b68281ec4d11b87dd20b58fbde98f",
        (4, 7):
            "6fed4ace4dabcc0852dc213a89819661c589c2d4e6af0cf7eb81bf6ddcb827a6",
        (4, 8):
            "7d54a962110b8cfdb3cb93f55e74fd6669553038ffae177b8a63723dc932c087",
    }

    @pytest.mark.parametrize("n", range(1, 5))
    def test_reports_match_golden_digests(self, n):
        for d in range(1, 9):
            result = invoke("kinva", "--n", str(n), "--d", str(d), "--full")
            assert result.exit_code == 0, (n, d)
            digest = hashlib.sha256(result.stdout_bytes).hexdigest()
            assert digest == self.GOLDEN[n, d], (n, d)

    # sha256 of the stdout of ``kinva --n 5 --d D --full``, taken with
    # the earlier code, which refused rank 5 on the command line, once
    # that bound was lifted.
    GOLDEN_RANK_5 = {
        3: "35da76d5dd6e047e26e81688aa8685828724a3e74efc1b399ce86b577c375611",
        4: "0714a81a2cddd0354890c23b2e73d7900405951da5b3d67ad93fd355e41fd501",
        5: "b353c284796fb91efbf2252dcefdcd1dc8ba9b371b97fa092611805888c9df13",
        6: "212e5dce996b4672a49daa00e3668e34ef74d98b74240cdacf98fd7bc6d45314",
        8: "91b1f5ce8eb4b16361e139ccb23a7f354c5a544f5267d6d0719ca623eed51d95",
        10: "237ad56c93c4f82c26dd512d5513a22edde73f105da0639016b0d1ab472ff611",
    }

    @pytest.mark.parametrize("d", sorted(GOLDEN_RANK_5))
    def test_rank_5_reports_match_golden_digests(self, d):
        result = invoke("kinva", "--n", "5", "--d", str(d), "--full")
        assert result.exit_code == 0, d
        digest = hashlib.sha256(result.stdout_bytes).hexdigest()
        assert digest == self.GOLDEN_RANK_5[d], d

    # sha256 of the stdout of ``kinva --n 5`` at d = 1 and 2 (31,132
    # candidates in all), taken before the command checked its candidates
    # as it enumerated them.  A manual run at the same code gave
    # 6218f134...b4e6e0 for ``--d 2 --full`` and f74a1a9d...a87189 for
    # ``--d 1``.
    GOLDEN_RANK_5_DENSE = {
        "--d 1 --full":
            "452ff647963d612e77a34721895b63707b4a1b90b5d8b0ac9f5a0d5b2ca45d71",
        "--d 2":
            "e6b94f90394c2aa766b6483125dea4aca76a5c9774e22d17ee830f094d5ffb0e",
    }

    @pytest.mark.parametrize("args", sorted(GOLDEN_RANK_5_DENSE))
    def test_dense_rank_5_reports_match_golden_digests(self, args):
        result = invoke("kinva", "--n", "5", *args.split())
        assert result.exit_code == 0, args
        digest = hashlib.sha256(result.stdout_bytes).hexdigest()
        assert digest == self.GOLDEN_RANK_5_DENSE[args], args

    def test_report_reads_no_orbits(self, monkeypatch):
        # A candidate needs its descriptors and its Levi label's t, d0
        # and text only: with every read of a label's orbits raising,
        # the report is still the pinned one, and no Levi label it
        # enumerated holds orbits.
        def unread(label):
            raise AssertionError("kinva read the orbits of a label")
        labels, enumerate_labels = [], cli.enumerate_labels

        def kept(n, d):
            for lab in enumerate_labels(n, d):
                labels.append(lab)
                yield lab
        monkeypatch.setattr(levi.LeviLabel, "orbits", property(unread))
        monkeypatch.setattr(cli, "enumerate_labels", kept)
        result = invoke("kinva", "--n", "5", "--d", "2")
        assert result.exit_code == 0, result.exception
        digest = hashlib.sha256(result.stdout_bytes).hexdigest()
        assert digest == self.GOLDEN_RANK_5_DENSE["--d 2"]
        assert len(labels) == 203
        assert all(lab._orbits is None for lab in labels)

    # sha256 of the stdout of two sampled runs, taken before the command
    # streamed its candidates: --random still draws from all of them.
    GOLDEN_RANDOM = {
        "--n 3 --d 2 --random 5 --seed 4":
            "3259692746d08c3d136e2787d60eace6a433d3422cc972177dc003162ca97de3",
        "--n 4 --d 1 --random 40 --seed 2 --full":
            "bcba7b839fa9b470f646130dd8622e002af419524107b06088c99456fd114c91",
    }

    @pytest.mark.parametrize("args", sorted(GOLDEN_RANDOM))
    def test_random_reports_match_golden_digests(self, args):
        result = invoke("kinva", *args.split())
        assert result.exit_code == 0, args
        digest = hashlib.sha256(result.stdout_bytes).hexdigest()
        assert digest == self.GOLDEN_RANDOM[args], args

    @pytest.mark.parametrize("n", range(1, 4))
    def test_streamed_report_is_the_full_one_without_reports(self, n):
        for d in range(1, 9):
            args = ("kinva", "--n", str(n), "--d", str(d))
            full = run_json(*args, "--full")
            assert len(full.pop("reports")) == full["checked"], d
            assert run_json(*args) == full, d

    def test_failures_stream_as_in_the_full_report(self, monkeypatch):
        # Every gate-passing label passes, so a stand-in check fails the
        # labels without the full cover.
        check = cli.kinva_check

        def failing(label, cap, key):
            return {**check(label, cap=cap, key=key),
                    "pass": label.ltilde_full}

        monkeypatch.setattr(cli, "kinva_check", failing)
        args = ("kinva", "--n", "2", "--d", "1")
        full, streamed = invoke(*args, "--full"), invoke(*args)
        assert full.exit_code == streamed.exit_code == 1
        full = json.loads(full.stdout)
        reports = full.pop("reports")
        failures = [r["label"] for r in reports if not r["pass"]]
        assert 0 < len(failures) < len(reports)
        assert full["failures"] == failures
        assert json.loads(streamed.stdout) == full

    def test_candidates_are_checked_as_they_are_enumerated(self,
                                                           monkeypatch):
        # Without --random the command holds no list of candidates: the
        # first check comes before the second Levi label is enumerated.
        events = []
        enumerate_char_labels, check = cli.enumerate_char_labels, cli.kinva_check

        def enumerated(levi):
            events.append("levi")
            return enumerate_char_labels(levi)

        def checked(label, cap, key):
            events.append("check")
            return check(label, cap=cap, key=key)

        monkeypatch.setattr(cli, "enumerate_char_labels", enumerated)
        monkeypatch.setattr(cli, "kinva_check", checked)
        assert run_json("kinva", "--n", "2", "--d", "1")["checked"] > 1
        assert events.index("check") < events.index("levi", 1)


class TestChartab:
    def test_s3(self):
        report = run_json("chartab", "--group", "s3")
        assert report["order"] == 6
        assert sorted(report["degrees"]) == [1, 1, 2]
        assert len(report["rows"]) == 3
        sizes = sorted(c["size"] for c in report["classes"])
        assert sizes == [1, 2, 3]

    def test_q8_and_d8_differ_in_reps_not_degrees(self):
        q8 = run_json("chartab", "--group", "q8")
        d8 = run_json("chartab", "--group", "d8")
        assert sorted(q8["degrees"]) == sorted(d8["degrees"]) == [1, 1, 1, 1, 2]

    def test_c4_values_are_fourth_roots(self):
        report = run_json("chartab", "--group", "c4")
        assert report["degrees"] == [1, 1, 1, 1]
        flat = {v for row in report["rows"] for v in row}
        assert flat <= {"1", "-1", "z4", "-z4"}

    def test_unknown_preset(self):
        assert invoke("chartab", "--group", "m11").exit_code == 2

    # sha256 of the stdout of ``chartab --group G --format json``, taken
    # before the Dixon path was reworked; every table must stay the same.
    GOLDEN = {
        "c2wrs2":
            "8c3ca39a1a28e5117241166dde29e346a867ed3be0503fe399d0d20b801dc2b3",
        "c2wrs3":
            "b919fcd2c502990a36b1031a87c04b040406b5b69e3512a2af1571da03529fe9",
        "c3wrs2":
            "4fa00abfaa54b9516e0b157ebe116d643a80b4f25f3987c346ee89dd9ec4f4ca",
        "c3wrs3":
            "d9e9c4c1001afe4bb9bab7ec8c885c48cc0d744584b230b22761381b33a841e6",
        "c4":
            "84cba275967fcd6b6a30953df78bf00822055a131cbe6cfb588bf4acec14d01c",
        "c4wrs2":
            "49299aee6b0719cc41c6a7b6b2e788b2ae6e5e39767d665a9faad853ad74e578",
        "c4wrs3":
            "e38e8e6c8c95f773640314e1cea78a998d072b2604a0ff8036d04a3869ea8727",
        "c6":
            "26249decd63c0124a825b64d9c899dfc22a32497c3d79afce9045ab6a7253b71",
        "d8":
            "1e2e3a59b3f85705f73fcdabe64f9f498390e95d5cfb669d4f1274ad42c71e6b",
        "q8":
            "7eae0e3205068f720fc02057ad02d82531cf58d133dda22dff18fc9aabad4b3c",
        "s3":
            "0b2c12412c4d4c2083d49290220ae855a3a359339d5820279b4d9593cf4ee162",
        "s4":
            "c1ed10316104681a31d619f67503f93ce6d4fdf331acaa87f91146cdf33e1037",
    }

    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_tables_match_golden_digests(self, name):
        result = invoke("chartab", "--group", name, "--format", "json")
        assert result.exit_code == 0, name
        digest = hashlib.sha256(result.stdout_bytes).hexdigest()
        assert digest == self.GOLDEN[name]

    def test_every_preset_has_a_digest(self):
        assert set(self.GOLDEN) == set(cli.PRESETS)


# Run in a fresh interpreter: the stdout of each oracle report, then its
# exit status.
_HASH_SEED_RUN = """
import sys
from click.testing import CliRunner
from dsplitlevi import cli
for args in (["verify", "torus", "--q", "3"],
             ["relweyl", "--n", "4", "--d", "1"],
             ["kinva", "--n", "4", "--d", "2", "--full"],
             ["chartab", "--group", "c2wrs3"]):
    result = CliRunner().invoke(cli.main, args)
    sys.stdout.buffer.write(result.stdout_bytes)
    sys.stdout.buffer.write(b"exit %d\\n" % result.exit_code)
"""


class TestDeterminism:
    CASES = [
        ("levis", "--n", "3", "--d", "2", "--q", "3"),
        ("levis", "--n", "2", "--d", "4", "--format", "tsv"),
        ("levis", "--n", "7", "--d", "2", "--q", "5", "--format", "tsv"),
        ("relweyl", "--n", "2", "--d", "1"),
        ("verify", "eq1", "--n", "2", "--d", "1..2"),
        ("kinva", "--n", "2", "--d", "4"),
        ("kinva", "--n", "2", "--d", "4", "--random", "2", "--seed", "5"),
        ("chartab", "--group", "c4wrs2"),
        ("relweyl", "--n", "2", "--d", "4"),
        ("verify", "eq1", "--n", "2..3", "--d", "1..4"),
        ("kinva", "--n", "2", "--d", "4", "--full"),
        ("kinva", "--n", "2", "--d", "1", "--random", "4", "--seed", "3"),
        ("chartab", "--group", "q8"),
    ]

    @pytest.mark.parametrize("case", CASES, ids=lambda c: " ".join(c))
    def test_byte_identical(self, case):
        a, b = invoke(*case), invoke(*case)
        assert a.exit_code == 0 and b.exit_code == 0
        assert a.stdout_bytes == b.stdout_bytes
        if "tsv" not in case:
            json.loads(a.output)

    def test_hash_seed_does_not_reach_the_oracles(self):
        # The oracles build sets (of log tuples, of masks and cosets), and
        # the invariance search iterates sets and frozensets of class
        # actions; no report may depend on the order of hashing.
        src = os.path.dirname(os.path.dirname(dsplitlevi.__file__))
        outputs = []
        for seed in ("0", "1"):
            env = dict(os.environ, PYTHONHASHSEED=seed,
                       PYTHONPATH=os.pathsep.join(
                           filter(None, [src, os.environ.get("PYTHONPATH")])))
            proc = subprocess.run(
                [sys.executable, "-c", _HASH_SEED_RUN], env=env,
                capture_output=True, timeout=120, check=True)
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1]
        assert outputs[0].count(b"exit 0\n") == 4

    def test_json_is_canonical(self):
        out = invoke("levis", "--n", "2", "--d", "4").output
        parsed = json.loads(out)
        assert out.strip() == json.dumps(parsed, sort_keys=True,
                                         separators=(",", ":"))


# Every non-str value a report record can hold: ints of any size and sign,
# bools, None, and lists and str-keyed dicts of these (and of strs).
_RECORD_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers()
    | st.integers(min_value=-2 ** 300, max_value=2 ** 300),
    lambda inner: st.lists(inner | st.text(), max_size=4)
    | st.dictionaries(st.text(), inner | st.text(), max_size=4),
    max_leaves=12)


class TestCellRendering:
    @given(_RECORD_VALUES)
    @settings(max_examples=300)
    def test_cell_is_canonical_json(self, value):
        assert cli._cell(value) == cli.canonical_json(value) == json.dumps(
            value, sort_keys=True, separators=(",", ":"))


def _is_table(value):
    return (isinstance(value, list) and bool(value)
            and all(isinstance(r, dict) for r in value))


def _whole_tsv(report):
    """TSV of a whole report: '#'-prefixed fields, then its one table
    (the first non-empty list of dicts by key) under the union of the
    records' keys."""
    key = next((k for k in sorted(report) if _is_table(report[k])), None)
    lines = [f"# {k}\t{cli._cell(v)}" for k, v in sorted(report.items())
             if k != key]
    if key is not None:
        cols = sorted({c for rec in report[key] for c in rec})
        lines.append("\t".join(cols))
        lines += ["\t".join(cli._cell(rec[c]) if c in rec else ""
                             for c in cols) for rec in report[key]]
    return "\n".join(lines)


def _whole_text(report):
    """Text of a whole report: a line per field, a table's records each
    on its own indented line."""
    lines = []
    for k, v in sorted(report.items()):
        if _is_table(v):
            lines += [f"{k}:"] + ["  " + json.dumps(
                r, sort_keys=True, separators=(",", ":")) for r in v]
        else:
            lines.append(f"{k}: {cli._cell(v)}")
    return "\n".join(lines)


class TestStreamingWriters:
    """Each writer, given a report's head fields, its record key and its
    records (a list of dicts, or rows as a list or an iterator), writes
    the bytes of the whole report's rendering, whatever the chunk
    size."""

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_writers_match_the_whole_report(self, data):
        names = st.text(max_size=3)
        head = data.draw(st.dictionaries(
            names, _RECORD_VALUES.filter(lambda v: not _is_table(v)),
            max_size=4))
        key = data.draw(names.filter(lambda k: k not in head))
        records = data.draw(st.lists(st.dictionaries(
            names, _RECORD_VALUES, max_size=3), max_size=6))
        report = {**head, key: records}
        expected = {
            "json": json.dumps(report, sort_keys=True, separators=(",", ":")),
            "tsv": _whole_tsv(report), "text": _whole_text(report)}
        for fmt, text in expected.items():
            out = []
            chunk = data.draw(st.integers(min_value=1, max_value=3))
            with mock.patch.object(cli, "_out", out.append), \
                    mock.patch.object(cli, "CHUNK_RECORDS", chunk):
                cli._emit(fmt, head, key, records)
            assert "".join(out) == text + "\n", fmt

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_rows_match_the_records(self, data):
        # A table handed over as rows already encoded in the format, with
        # its columns, is written as its dict records are, in one write
        # per chunk: the head goes with the first and the tail with the
        # last.
        names = st.text(max_size=3)
        head = data.draw(st.dictionaries(
            names, _RECORD_VALUES.filter(lambda v: not _is_table(v)),
            max_size=4))
        key = data.draw(names.filter(lambda k: k not in head))
        records = data.draw(st.lists(st.dictionaries(
            names, _RECORD_VALUES, max_size=3), max_size=6))
        cols = sorted({c for rec in records for c in rec})
        stream = data.draw(st.booleans()) and bool(records)
        chunk = data.draw(st.integers(min_value=1, max_value=3))
        for fmt in ("json", "tsv", "text"):
            rows = [cli._row(fmt, rec, cols) for rec in records]
            outs = []
            for args in ((records,), (iter(rows) if stream else rows, cols)):
                out = []
                with mock.patch.object(cli, "_out", out.append), \
                        mock.patch.object(cli, "CHUNK_RECORDS", chunk):
                    cli._emit(fmt, head, key, *args)
                outs.append(out)
            assert outs[0] == outs[1], fmt
            assert len(outs[1]) == max(1, -(-len(records) // chunk)), fmt

    def test_head_alone(self):
        head = {"b": [1], "a": None, "c": []}
        expected = {
            "json": json.dumps(head, sort_keys=True, separators=(",", ":")),
            "tsv": _whole_tsv(head), "text": _whole_text(head)}
        for fmt, text in expected.items():
            out = []
            with mock.patch.object(cli, "_out", out.append):
                cli._emit(fmt, head)
            assert "".join(out) == text + "\n", fmt
