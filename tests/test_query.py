"""Split-query parsing, validation, and plan extraction."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fedsum.query import (
    DEFAULT_TRIPS_STREAM,
    EmptyServerAggregationError,
    MissingPrivacyTimeUnitError,
    NonAggregatingQueryError,
    ParseError,
    QueryValidationError,
    UnknownColumnError,
    UnsupportedAggregateError,
    parse_and_validate,
    parse_query,
    pretty_print,
    to_agg_config,
)

from helpers import malformed_query_cases

EXAMPLE = """\
SELECT activity, region, direction, privacy_time_unit,
       SUM(trip_distance) AS user_trip_distance
FROM DeviceDataStream
GROUP BY activity, region, direction, privacy_time_unit

SELECT activity, region, direction, privacy_time_unit, SUM(user_trip_distance)
FROM UserResults
GROUP BY activity, region, direction, privacy_time_unit;
"""

KEYS = ("activity", "region", "direction", "privacy_time_unit")

FULL_KEY = """\
SELECT activity, region, direction, privacy_time_unit,
       SUM(trip_count) AS n, SUM(trip_distance) AS km
FROM DeviceDataStream
GROUP BY activity, region, direction, privacy_time_unit

SELECT activity, region, direction, privacy_time_unit,
       SUM(n) AS total_n, SUM(km) AS total_km
FROM UserResults
GROUP BY activity, region, direction, privacy_time_unit
"""


def test_example_query_plan():
    spec = parse_and_validate(EXAMPLE)
    assert spec.client_key_columns == KEYS
    assert spec.metric_columns == ("trip_distance",)
    assert [a.alias for a in spec.client.aggregates] == ["user_trip_distance"]
    assert spec.server.table == "UserResults"
    assert spec.client.table == "DeviceDataStream"
    # Without AS, the server output column keeps the source name.
    assert [a.alias for a in spec.server.aggregates] == ["user_trip_distance"]
    assert spec.server_key_columns == KEYS


def test_keywords_are_case_insensitive_identifiers_are_not():
    lowered = EXAMPLE.replace("SELECT", "select").replace("FROM", "from")
    lowered = lowered.replace("GROUP BY", "group by").replace(" AS ", " as ")
    spec = parse_and_validate(lowered)
    assert spec.client_key_columns == KEYS
    with pytest.raises(UnknownColumnError):
        parse_and_validate(EXAMPLE.replace("region", "Region"))


def test_semicolons_are_optional():
    spec = parse_and_validate(EXAMPLE.replace(";", ""))
    assert spec.server_key_columns == KEYS


def test_pretty_print_round_trips():
    for text in (EXAMPLE, FULL_KEY):
        spec = parse_and_validate(text)
        printed = pretty_print(spec)
        again = parse_and_validate(printed)
        assert (again.client, again.server) == (spec.client, spec.server)
        assert pretty_print(again) == printed


def test_statement_count_must_be_exactly_two():
    only_client = EXAMPLE.split("\n\n")[0]
    with pytest.raises(ParseError):
        parse_query(only_client)
    with pytest.raises(ParseError):
        parse_query(EXAMPLE + "\n\n" + "SELECT region FROM UserResults")


def test_empty_text_fails_at_line_one_column_one():
    with pytest.raises(ParseError) as err:
        parse_query("")
    assert err.value.line == 1
    assert err.value.column == 1
    assert "line 1, column 1" in str(err.value)


def test_parse_error_reports_position():
    with pytest.raises(ParseError) as err:
        parse_query("SELECT region,\nFROM Dev")
    assert err.value.line >= 1
    assert err.value.column >= 1


def test_reserved_words_cannot_be_identifiers():
    bad = EXAMPLE.replace("region", "select")
    with pytest.raises(ParseError):
        parse_query(bad)


@pytest.mark.parametrize(
    "label,text,expected",
    [(c[0], c[1], c[2]) for c in malformed_query_cases()[:12]],
)
def test_rejections_spot_check(label, text, expected):
    with pytest.raises(expected):
        parse_and_validate(text)


def test_server_only_projection_is_non_aggregating():
    text = EXAMPLE.split("\n\n")[0] + "\n\nSELECT region FROM UserResults"
    with pytest.raises(NonAggregatingQueryError):
        parse_and_validate(text)


def test_avg_is_unsupported():
    with pytest.raises(UnsupportedAggregateError):
        parse_and_validate(EXAMPLE.replace("SUM(trip_distance)", "AVG(trip_distance)"))


def test_missing_privacy_time_unit_is_its_own_error():
    text = """\
SELECT region, SUM(trip_distance) AS km FROM DeviceDataStream GROUP BY region

SELECT region, SUM(km) AS total FROM UserResults GROUP BY region
"""
    with pytest.raises(MissingPrivacyTimeUnitError):
        parse_and_validate(text)


def test_server_grouping_by_device_id_names_the_column():
    text = EXAMPLE.split("\n\n")[0] + (
        "\n\nSELECT device_id, privacy_time_unit, SUM(user_trip_distance) "
        "FROM UserResults GROUP BY device_id, privacy_time_unit"
    )
    with pytest.raises(UnknownColumnError) as err:
        parse_and_validate(text)
    assert "device_id" in str(err.value)


def test_server_without_any_sum_is_empty_aggregation():
    text = EXAMPLE.split("\n\n")[0] + (
        "\n\nSELECT activity, region, direction, privacy_time_unit FROM UserResults "
        "GROUP BY activity, region, direction, privacy_time_unit"
    )
    with pytest.raises(EmptyServerAggregationError):
        parse_and_validate(text)


def test_duplicate_output_columns_rejected():
    text = """\
SELECT activity, region, direction, privacy_time_unit, SUM(trip_distance) AS region
FROM DeviceDataStream GROUP BY activity, region, direction, privacy_time_unit

SELECT activity, region, direction, privacy_time_unit, SUM(region) AS t
FROM UserResults GROUP BY activity, region, direction, privacy_time_unit
"""
    with pytest.raises(QueryValidationError):
        parse_and_validate(text)


@pytest.mark.parametrize("stage", ["client", "server"])
def test_each_statement_groups_by_exactly_the_release_keys(stage):
    client, server = EXAMPLE.split("\n\n")
    if stage == "client":
        client = client.replace("activity, region", "region")
        server = server.replace("activity, region", "region")
    else:
        server = server.replace("activity, region", "region")
    with pytest.raises(QueryValidationError, match=f"grouping the {stage} statement by exactly"):
        parse_and_validate(f"{client}\n\n{server}")


@pytest.mark.parametrize(
    "sums", ["SUM(trip_km)", "SUM(n), SUM(n) AS n2, SUM(trip_km)", "SUM(n)"]
)
def test_the_server_sums_each_client_column_exactly_once(sums):
    text = FULL_KEY.replace("SUM(n) AS total_n, SUM(km) AS total_km", sums).replace(
        "AS km", "AS trip_km"
    )
    with pytest.raises(QueryValidationError, match="exactly once"):
        parse_and_validate(text)
    assert parse_and_validate(text.replace(sums, "SUM(trip_km), SUM(n)")).server.aggregates


def test_the_client_sums_each_stream_column_at_most_once():
    # Two aliases of one column would upload its value twice per cell, past
    # the L1 bound the server checks uploads against.
    text = FULL_KEY.replace("SUM(trip_distance) AS km", "SUM(trip_count) AS km")
    with pytest.raises(QueryValidationError, match="at most once"):
        parse_and_validate(text)
    assert parse_and_validate(FULL_KEY).metric_columns == ("trip_count", "trip_distance")


def test_alias_may_equal_its_source():
    text = EXAMPLE.replace(
        "SUM(trip_distance) AS user_trip_distance",
        "SUM(trip_distance) AS trip_distance",
    ).replace("SUM(user_trip_distance)", "SUM(trip_distance)")
    spec = parse_and_validate(text)
    assert [a.alias for a in spec.client.aggregates] == ["trip_distance"]


def test_to_agg_config_extracts_server_plan():
    spec = parse_and_validate(FULL_KEY)
    config = to_agg_config(spec)
    assert config.key_columns == (
        "activity",
        "region",
        "direction",
        "privacy_time_unit",
    )
    # The core sums what uploads carry: the client's sum columns.
    assert config.value_columns == ("n", "km")


# --- structured fuzzing -------------------------------------------------------

idents = st.sampled_from(
    ["region", "activity", "direction", "trips", "foo", "km", "device_id"]
)


@given(st.lists(idents, min_size=1, max_size=4, unique=True))
def test_server_statements_without_sums_never_validate(columns):
    client = EXAMPLE.split("\n\n")[0]
    cols = ", ".join(columns)
    with_group = f"SELECT {cols} FROM UserResults GROUP BY {cols}"
    without_group = f"SELECT {cols} FROM UserResults"
    for server in (with_group, without_group):
        with pytest.raises((QueryValidationError, ParseError)):
            parse_and_validate(client + "\n\n" + server)


@given(st.sampled_from(["COUNT", "AVG", "MIN", "MAX", "SUMM", "TOTAL"]))
def test_only_sum_survives_validation(func):
    with pytest.raises((UnsupportedAggregateError, UnknownColumnError)):
        parse_and_validate(
            EXAMPLE.replace("SUM(trip_distance)", f"{func}(trip_distance)")
        )


def test_stream_schema_defaults():
    assert DEFAULT_TRIPS_STREAM.name == "DeviceDataStream"
    assert "privacy_time_unit" in DEFAULT_TRIPS_STREAM.key_columns
    assert "trip_distance" in DEFAULT_TRIPS_STREAM.numeric_columns
