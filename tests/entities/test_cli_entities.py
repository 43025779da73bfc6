"""CLI surface: N-way identify routing and the ``repro entities`` commands."""

import json

import pytest

from repro.cli import main


@pytest.fixture
def three_csvs(tmp_path):
    r = tmp_path / "R.csv"
    r.write_text(
        "name,speciality,street\n"
        "TwinCities,Hunan,Wash.Ave.\n"
        "Anjuman,Mughalai,LeSalleAve.\n"
    )
    s = tmp_path / "S.csv"
    s.write_text(
        "name,speciality,county\n"
        "TwinCities,Hunan,Mpls.\n"
        "Anjuman,Mughalai,Mpls.\n"
        "ItsGreek,Greek,Mpls.\n"
    )
    t = tmp_path / "T.csv"
    t.write_text(
        "name,speciality,phone\n"
        "TwinCities,Hunan,555-0101\n"
        "Anjuman,Mughalai,555-0202\n"
    )
    return r, s, t


def source_args(three_csvs):
    r, s, t = three_csvs
    return [
        "--source", f"R={r}",
        "--source", f"S={s}",
        "--source", f"T={t}",
        "--key", "R=name,speciality",
        "--key", "S=name,speciality",
        "--key", "T=name,speciality",
        "--extended-key", "name,speciality",
    ]


class TestIdentifyMultiwayRouting:
    def test_three_sources_route_to_multiway(self, three_csvs, capsys):
        status = main(["identify"] + source_args(three_csvs))
        assert status == 0
        out = capsys.readouterr().out
        assert "3 source" in out or "clusters" in out.lower()
        assert "TwinCities" in out

    def test_integrated_output_written(self, three_csvs, tmp_path, capsys):
        out_path = tmp_path / "integrated.csv"
        status = main(
            ["identify"] + source_args(three_csvs) + ["--out", str(out_path)]
        )
        assert status == 0
        text = out_path.read_text()
        assert "sources" in text.splitlines()[0]
        assert "R,S,T" in text

    def test_mixing_positionals_with_sources_rejected(self, three_csvs, capsys):
        r, s, _ = three_csvs
        status = main(
            ["identify", str(r), str(s)] + source_args(three_csvs)
        )
        assert status == 2

    def test_store_not_supported_multiway(self, three_csvs, tmp_path, capsys):
        status = main(
            ["identify"]
            + source_args(three_csvs)
            + ["--store", str(tmp_path / "x.sqlite")]
        )
        assert status == 2

    def test_two_source_form_still_needs_keys(self, three_csvs, capsys):
        r, s, _ = three_csvs
        status = main(
            ["identify", str(r), str(s), "--extended-key", "name,speciality"]
        )
        assert status == 2


class TestEntitiesBuild:
    def test_build_show_export_round_trip(self, three_csvs, tmp_path, capsys):
        store_path = tmp_path / "e.sqlite"
        status = main(
            ["entities", "build", str(store_path)] + source_args(three_csvs)
        )
        assert status == 0
        build_out = capsys.readouterr().out
        assert "canonical entit" in build_out

        assert main(["entities", "show", str(store_path)]) == 0
        show_out = capsys.readouterr().out
        assert "ent-" in show_out

        entity_id = next(
            token
            for line in show_out.splitlines()
            for token in line.split()
            if token.startswith("ent-")
        )
        assert main(
            ["entities", "show", str(store_path), "--entity", entity_id]
        ) == 0
        detail = capsys.readouterr().out
        assert entity_id in detail
        assert "golden" in detail.lower()

        out_csv = tmp_path / "golden.csv"
        assert main(
            ["entities", "export", str(store_path), "--out", str(out_csv)]
        ) == 0
        header = out_csv.read_text().splitlines()[0]
        assert header.startswith("entity_id,")
        assert header.endswith(",sources")

    def test_build_json_report(self, three_csvs, tmp_path, capsys):
        store_path = tmp_path / "e.sqlite"
        status = main(
            ["entities", "build", str(store_path)]
            + source_args(three_csvs)
            + ["--json", "--quiet"]
        )
        assert status == 0
        report = json.loads(capsys.readouterr().out)
        assert report["entities"] == 2  # TwinCities and Anjuman span >=2 sources
        assert report["sound"] is True
        assert report["fingerprint"]

    def test_matched_pair_declared_distinct_is_fatal(self, tmp_path, capsys):
        # Both sources say TwinCities/Hunan is Indian; the ILFD's
        # distinctness dual declares the matched pair distinct.
        for name in ("R", "S"):
            (tmp_path / f"{name}.csv").write_text(
                "name,cuisine,speciality\nTwinCities,Indian,Hunan\n"
            )
        status = main(
            [
                "entities", "build", str(tmp_path / "e.sqlite"),
                "--source", f"R={tmp_path / 'R.csv'}",
                "--source", f"S={tmp_path / 'S.csv'}",
                "--key", "R=name,cuisine",
                "--key", "S=name,cuisine",
                "--extended-key", "name,cuisine,speciality",
                "--ilfd", "speciality=Hunan -> cuisine=Chinese",
            ]
        )
        assert status == 2
        assert "negative matching" in capsys.readouterr().err

    def test_survivorship_spec_applied(self, three_csvs, tmp_path, capsys):
        store_path = tmp_path / "e.sqlite"
        status = main(
            ["entities", "build", str(store_path)]
            + source_args(three_csvs)
            + ["--survivorship", "source_priority:T>S>R"]
        )
        assert status == 0

    def test_bad_survivorship_spec_is_usage_error(
        self, three_csvs, tmp_path, capsys
    ):
        status = main(
            ["entities", "build", str(tmp_path / "e.sqlite")]
            + source_args(three_csvs)
            + ["--survivorship", "coin_flip"]
        )
        assert status == 2

    def test_bad_source_spec_is_usage_error(self, tmp_path, capsys):
        status = main(
            [
                "entities", "build", str(tmp_path / "e.sqlite"),
                "--source", "not-a-name-eq-path",
                "--extended-key", "name",
            ]
        )
        assert status == 2

    def test_show_without_build_is_fatal(self, tmp_path, capsys):
        from repro.store import SqliteStore

        path = tmp_path / "empty.sqlite"
        SqliteStore(path).close()
        assert main(["entities", "show", str(path)]) == 2
