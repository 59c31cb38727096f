import csv

import numpy as np
import pytest

from marketstates.errors import DataError
from marketstates.ingest import (
    ContinuityPolicy,
    PricePanel,
    load_panel,
    load_prices,
    load_sector_map,
    log_returns,
    save_panel,
)


def write_csv(path, text):
    path.write_text(text)
    return path


def test_dense_panel_loads_identically(tmp_path):
    csv_path = write_csv(
        tmp_path / "p.csv",
        "date,AAA,BBB\n2020-01-01,10.0,20.0\n2020-01-02,10.5,19.5\n2020-01-03,11.0,19.0\n",
    )
    panel = load_prices(csv_path)
    assert panel.tickers == ["AAA", "BBB"]
    assert panel.dates == ["2020-01-01", "2020-01-02", "2020-01-03"]
    assert panel.dropped == {}
    np.testing.assert_array_equal(panel.prices, [[10.0, 10.5, 11.0], [20.0, 19.5, 19.0]])


def test_forward_fill_uses_previous_value(tmp_path):
    csv_path = write_csv(
        tmp_path / "p.csv",
        "date,AAA\n2020-01-01,100.0\n2020-01-02,\n2020-01-03,102.0\n",
    )
    panel = load_prices(csv_path)
    np.testing.assert_array_equal(panel.prices, [[100.0, 100.0, 102.0]])


def test_gap_longer_than_policy_drops_ticker(tmp_path):
    # AAA has a 3-day gap, over the default limit of 2; BBB has exactly 2 and stays.
    csv_path = write_csv(
        tmp_path / "p.csv",
        "date,AAA,BBB\n"
        "2020-01-01,1.0,1.0\n"
        "2020-01-02,,2.0\n"
        "2020-01-03,,\n"
        "2020-01-06,,\n"
        "2020-01-07,5.0,5.0\n",
    )
    panel = load_prices(csv_path)
    assert panel.tickers == ["BBB"]
    assert "AAA" in panel.dropped and "3" in panel.dropped["AAA"]
    np.testing.assert_array_equal(panel.prices, [[1.0, 2.0, 2.0, 2.0, 5.0]])


def test_policy_is_tunable(tmp_path):
    csv_path = write_csv(
        tmp_path / "p.csv",
        "date,AAA,BBB\n2020-01-01,1.0,2.0\n2020-01-02,,2.5\n2020-01-03,3.0,2.0\n",
    )
    assert load_prices(csv_path).tickers == ["AAA", "BBB"]
    strict = load_prices(csv_path, ContinuityPolicy(max_consecutive_missing=0))
    assert strict.tickers == ["BBB"]
    assert strict.prices.shape == (1, 3)
    assert "1 consecutive missing" in strict.dropped["AAA"]


def test_panel_with_no_surviving_ticker_is_a_data_error(tmp_path):
    csv_path = write_csv(
        tmp_path / "p.csv",
        "date,AAA,BBB\n2020-01-01,1.0,\n2020-01-02,,2.5\n2020-01-03,3.0,2.0\n",
    )
    with pytest.raises(DataError, match=r"no ticker survives.*all 2 dropped.*\(AAA\).*1 consecutive"):
        load_prices(csv_path, ContinuityPolicy(max_consecutive_missing=0))


def test_leading_gap_drops_ticker(tmp_path):
    csv_path = write_csv(
        tmp_path / "p.csv",
        "date,AAA,BBB\n2020-01-01,,1.0\n2020-01-02,2.0,2.0\n",
    )
    panel = load_prices(csv_path)
    assert panel.tickers == ["BBB"]
    assert "first" in panel.dropped["AAA"]


def test_nonpositive_and_unparsable_prices_drop_ticker(tmp_path):
    csv_path = write_csv(
        tmp_path / "p.csv",
        "date,NEG,BAD,OK\n2020-01-01,5.0,5.0,5.0\n2020-01-02,-1.0,oops,6.0\n",
    )
    panel = load_prices(csv_path)
    assert panel.tickers == ["OK"]
    assert "non-positive" in panel.dropped["NEG"]
    assert "unparsable" in panel.dropped["BAD"]


def test_nan_tokens_count_as_missing(tmp_path):
    csv_path = write_csv(
        tmp_path / "p.csv",
        "date,AAA\n2020-01-01,1.0\n2020-01-02,NaN\n2020-01-03,nan\n2020-01-04,4.0\n",
    )
    panel = load_prices(csv_path)
    np.testing.assert_array_equal(panel.prices, [[1.0, 1.0, 1.0, 4.0]])


def test_non_monotone_dates_raise(tmp_path):
    csv_path = write_csv(
        tmp_path / "p.csv",
        "date,AAA\n2020-01-02,1.0\n2020-01-01,2.0\n",
    )
    with pytest.raises(DataError):
        load_prices(csv_path)


def test_malformed_rows_raise(tmp_path):
    csv_path = write_csv(tmp_path / "p.csv", "date,AAA\n2020-01-01,1.0,9.9\n")
    with pytest.raises(DataError):
        load_prices(csv_path)
    with pytest.raises(DataError):
        load_prices(tmp_path / "missing.csv")


# --------------------------------------------------------------------------
# the column-wise parser against the per-cell parser it replaced


def oracle_filter_column(raw, policy):
    """The per-cell continuity filter, kept verbatim as the oracle."""
    values = np.full(len(raw), np.nan)
    for i, cell in enumerate(raw):
        token = cell.strip()
        if token.lower() in {"", "nan"}:
            continue
        try:
            price = float(token)
        except ValueError:
            return None, f"unparsable price {token!r} on {i + 1}-th row"
        if not np.isfinite(price) or price <= 0:
            return None, f"non-positive price {price} on {i + 1}-th row"
        values[i] = price

    missing = np.isnan(values)
    if missing.all():
        return None, "no prices at all"
    if missing[0]:
        return None, "missing first entry (nothing to forward-fill from)"
    run = longest = 0
    for gap in missing:
        run = run + 1 if gap else 0
        longest = max(longest, run)
    if longest > policy.max_consecutive_missing:
        return None, (
            f"{longest} consecutive missing entries exceed the allowed "
            f"{policy.max_consecutive_missing}"
        )
    for i in range(1, len(values)):
        if missing[i]:
            values[i] = values[i - 1]
    return values, ""


def oracle_load_prices(path, policy=ContinuityPolicy()):
    """The per-cell load_prices body (well-formed input only): one column at a time."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    tickers = [h.strip() for h in rows[0]][1:]
    body = [row for row in rows[1:] if row and any(cell.strip() for cell in row)]
    kept_names, kept_cols, dropped = [], [], {}
    for j, name in enumerate(tickers):
        filled, reason = oracle_filter_column([row[j + 1] for row in body], policy)
        if filled is None:
            dropped[name] = reason
        else:
            kept_names.append(name)
            kept_cols.append(filled)
    prices = np.array(kept_cols, dtype=float) if kept_cols else np.empty((0, len(body)))
    return kept_names, [row[0].strip() for row in body], prices, dropped


def write_columns(path, columns):
    """A price CSV from named columns of raw cell strings, one date per row."""
    n_days = len(next(iter(columns.values())))
    dates = [(np.datetime64("2020-01-01") + d).astype(str) for d in range(n_days)]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["date", *columns])
        for t, date in enumerate(dates):
            writer.writerow([date, *(column[t] for column in columns.values())])
    return path


def assert_matches_oracle(path, policy=ContinuityPolicy()):
    panel = load_prices(path, policy)
    tickers, dates, prices, dropped = oracle_load_prices(path, policy)
    assert panel.tickers == tickers
    assert panel.dates == dates
    assert panel.dropped == dropped
    assert panel.prices.dtype == prices.dtype and panel.prices.shape == prices.shape
    assert panel.prices.tobytes() == prices.tobytes()  # bit-identical
    return panel


ODD_CELLS = ["", " ", "nan", " NaN ", "-nan", "+nan", "inf", "1e309", "0", "-1", "abc",
             "1_000", " 12.5 "]


def test_column_parser_matches_per_cell_oracle_on_odd_cells(tmp_path):
    columns = {}
    for k, cell in enumerate(ODD_CELLS):
        base = ["10.0", "10.5", "11.0", "11.5", "12.0", "12.5"]
        columns[f"MID{k}"] = base[:2] + [cell] + base[3:]
        columns[f"TWICE{k}"] = base[:1] + [cell, cell] + base[3:]
        columns[f"FIRST{k}"] = [cell] + base[1:]
        columns[f"LAST{k}"] = base[:-1] + [cell]
    panel = assert_matches_oracle(write_columns(tmp_path / "p.csv", columns))
    # the odd cells split into kept (missing or parsable) and dropped columns
    assert "MID0" in panel.tickers and "MID4" in panel.dropped
    assert {"MID11", "MID12"} <= set(panel.tickers)  # '1_000' and ' 12.5 ' are prices


def test_column_parser_matches_per_cell_oracle_on_gaps(tmp_path):
    limit = ContinuityPolicy().max_consecutive_missing
    base = [f"{100.0 + t}" for t in range(10)]

    def gap(start, length, token=""):
        return base[:start] + [token] * length + base[start + length:]

    columns = {
        "AT_LIMIT": gap(3, limit),
        "OVER_LIMIT": gap(3, limit + 1, "NaN"),
        "LEADING": gap(0, 1),
        "ALL_MISSING": [""] * 10,
        "TRAILING": gap(10 - limit, limit, "nan"),
        "CLEAN": base,
    }
    path = write_columns(tmp_path / "p.csv", columns)
    panel = assert_matches_oracle(path)
    assert panel.tickers == ["AT_LIMIT", "TRAILING", "CLEAN"]
    for policy in (ContinuityPolicy(0), ContinuityPolicy(limit + 1), ContinuityPolicy(10)):
        assert_matches_oracle(path, policy)


def test_column_parser_matches_per_cell_oracle_on_a_wide_random_panel(tmp_path):
    rng = np.random.default_rng(23)
    n_stocks, n_days = 200, 1300
    prices = np.exp(rng.normal(4.0, 0.5, size=(n_stocks, n_days)))
    columns = {}
    for i in range(n_stocks):
        cells = [repr(float(v)) for v in prices[i]]
        if i % 2:  # every other column gets scattered gaps of 1-3 days
            for start in rng.choice(n_days, size=rng.integers(1, 8), replace=False):
                stop = min(start + rng.integers(1, 4), n_days)
                cells[start:stop] = [["", "nan", " NaN "][rng.integers(3)]] * (stop - start)
        if i % 17 == 0:
            cells[rng.integers(n_days)] = ["-2.5", "0", "x", "inf"][i % 4]
        columns[f"S{i:03d}"] = cells
    path = write_columns(tmp_path / "p.csv", columns)
    panel = assert_matches_oracle(path)
    assert 0 < len(panel.dropped) < n_stocks // 2  # both paths are exercised
    assert any(i % 2 for i in (int(t[1:]) for t in panel.tickers))  # filled gaps kept
    assert_matches_oracle(path, ContinuityPolicy(3))


def test_parsed_dates_are_not_the_parsed_cells(tmp_path, monkeypatch):
    # a date string that is a cell of the parse would keep the parse's memory
    import marketstates.ingest as ingest

    path = tmp_path / "prices.csv"
    path.write_text("date,A,B\n2020-01-02,1.0,2.0\n 2020-01-03 ,1.5,2.5\n2020-01-06,2.0,3.0\n")
    rows = []
    real_reader = csv.reader

    def recording_reader(fh):
        parsed = list(real_reader(fh))
        rows.extend(parsed)
        return iter(parsed)

    monkeypatch.setattr(ingest.csv, "reader", recording_reader)
    panel = load_prices(path)
    assert panel.dates == ["2020-01-02", "2020-01-03", "2020-01-06"]
    cells = {id(cell) for row in rows for cell in row}
    assert not any(id(date) in cells for date in panel.dates)


def test_save_panel_bytes_match_the_per_cell_writer(tmp_path):
    rng = np.random.default_rng(29)
    panel = PricePanel(
        tickers=[f"S{i}" for i in range(6)],
        dates=[f"2020-01-{d + 1:02d}" for d in range(20)],
        prices=np.exp(rng.normal(3.0, 2.0, size=(6, 20))),
    )
    panel.prices[0, :3] = [1e-300, 1e300, 0.1 + 0.2]
    out = tmp_path / "panel.csv"
    save_panel(panel, out)
    lines = [",".join(["date"] + panel.tickers)]
    for t, date in enumerate(panel.dates):
        lines.append(",".join([date] + [repr(float(v)) for v in panel.prices[:, t]]))
    assert out.read_bytes() == ("\n".join(lines) + "\n").encode()
    assert load_panel(out).prices.tobytes() == panel.prices.tobytes()


def test_log_returns_match_definition():
    rng = np.random.default_rng(7)
    r = rng.normal(0.0, 0.02, size=(5, 40))
    prices = 100.0 * np.exp(np.concatenate([np.zeros((5, 1)), np.cumsum(r, axis=1)], axis=1))
    panel = PricePanel(
        tickers=[f"S{i}" for i in range(5)],
        dates=[f"2020-{1 + d // 28:02d}-{1 + d % 28:02d}" for d in range(41)],
        prices=prices,
    )
    rp = log_returns(panel)
    assert rp.returns.shape == (5, 40)
    assert rp.dates == panel.dates[:-1]
    np.testing.assert_allclose(rp.returns, r, rtol=0, atol=1e-12)


def test_save_load_round_trip_is_exact(tmp_path):
    rng = np.random.default_rng(11)
    prices = np.exp(rng.normal(4.0, 0.3, size=(3, 7)))
    panel = PricePanel(
        tickers=["A", "B", "C"],
        dates=[f"2020-01-{d + 1:02d}" for d in range(7)],
        prices=prices,
        sector_of={"A": "tech", "B": "tech", "C": "energy"},
        dropped={"Z": "no prices at all"},
    )
    out = tmp_path / "panel.csv"
    save_panel(panel, out)
    back = load_panel(out)
    assert back.tickers == panel.tickers
    assert back.dates == panel.dates
    assert back.sector_of == panel.sector_of
    assert back.dropped == panel.dropped
    np.testing.assert_array_equal(back.prices, panel.prices)

    # serialize -> load -> serialize is byte-stable
    again = tmp_path / "panel2.csv"
    save_panel(back, again)
    assert again.read_bytes() == out.read_bytes()


def test_sector_map_loading(tmp_path):
    csv_path = write_csv(
        tmp_path / "s.csv", "ticker,sector\nAAA,tech\nBBB,energy\n\n"
    )
    assert load_sector_map(csv_path) == {"AAA": "tech", "BBB": "energy"}
    bad = write_csv(tmp_path / "bad.csv", "nope,sector\nAAA,tech\n")
    with pytest.raises(DataError):
        load_sector_map(bad)
