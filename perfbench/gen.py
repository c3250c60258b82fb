"""Seeded generator of a CSV shaped like the Metro Interstate Traffic Volume data.

The real file has 48,205 hourly rows in nine columns, eleven ``weather_main``
categories, holidays marked on the first hour of the day, timeline gaps and
dirty rows.  The generator reproduces those properties and injects a known
number of rows that each reject path of the pipeline must catch, so a run can
check the counts ``prepare`` reports.  The same seed gives the same bytes.
"""

from __future__ import annotations

import numpy as np

HEADER = ("holiday,temp,rain_1h,snow_1h,clouds_all,weather_main,"
          "weather_description,date_time,traffic_volume")

ROWS = 48_205
MALFORMED = 40   # rejected by parse_csv
COLD = 25        # temperatures below 100 K, dropped by clean
DUPLICATES = 60  # repeated timestamps, dropped by clean (keep first)
GAPS = 12        # jumps of more than six hours in the timeline

START = np.datetime64("2012-10-02T09:00")
START_WEEKDAY = 1  # 2012-10-02 was a Tuesday

WEATHER = (
    ("Clouds", "broken clouds", 0.30),
    ("Clear", "sky is clear", 0.27),
    ("Mist", "mist", 0.12),
    ("Rain", "light rain", 0.11),
    ("Snow", "light snow", 0.06),
    ("Drizzle", "light intensity drizzle", 0.04),
    ("Haze", "haze", 0.03),
    ("Thunderstorm", "thunderstorm with light rain", 0.03),
    ("Fog", "fog", 0.02),
    ("Smoke", "smoke", 0.015),
    ("Squall", "SQUALLS", 0.005),
)

HOLIDAYS = {
    (1, 1): "New Years Day",
    (5, 30): "Memorial Day",
    (7, 4): "Independence Day",
    (9, 5): "Labor Day",
    (11, 11): "Veterans Day",
    (11, 24): "Thanksgiving Day",
    (12, 25): "Christmas Day",
}


def expected_summary() -> dict:
    """The counts ``prepare`` must report for any generated file."""
    parsed = ROWS - MALFORMED
    return {
        "parsed": parsed,
        "rejected": MALFORMED,
        "cleaning": {
            "kept": parsed - COLD - DUPLICATES,
            "dropped_temperature": COLD,
            "dropped_rain": 0,
            "duplicate_timestamps": DUPLICATES,
        },
        "feature_count": 9 + len(WEATHER) + 1,
    }


def _malformed(variant: int, fields: list) -> str:
    fields = list(fields)
    if variant == 0:
        fields.pop()                      # eight fields
    elif variant == 1:
        fields[1] = "n/a"                 # temperature is not a number
    elif variant == 2:
        fields[7] = "2013-13-40 25:00:00"  # impossible timestamp
    elif variant == 3:
        fields[8] = "-5"                  # negative volume
    else:
        fields[4] = "140"                 # clouds outside [0, 100]
    return ",".join(fields)


def generate(seed: int) -> str:
    """Return the CSV text for one seed."""
    rng = np.random.default_rng(seed)
    # special rows sit on every third slot so each one follows a normal row
    slots = rng.choice(np.arange(30, ROWS, 3), MALFORMED + COLD + DUPLICATES + GAPS,
                       replace=False)
    malformed = set(slots[:MALFORMED].tolist())
    cold = set(slots[MALFORMED:MALFORMED + COLD].tolist())
    dup = set(slots[MALFORMED + COLD:MALFORMED + COLD + DUPLICATES].tolist())
    gap_extra = np.zeros(ROWS, dtype=np.int64)
    gap_extra[slots[-GAPS:]] = rng.integers(7, 97, GAPS)

    step = np.ones(ROWS, dtype=np.int64)
    step[0] = 0
    step[sorted(dup)] = 0
    hours = np.cumsum(step + gap_extra)
    times = START + hours.astype("timedelta64[h]")
    stamps = np.char.replace(np.datetime_as_string(times, unit="s"), "T", " ")

    clock = (hours + 9) % 24
    day = (hours + 9) // 24
    weekday = (START_WEEKDAY + day) % 7
    months = times.astype("datetime64[M]")
    month = months.astype(np.int64) % 12 + 1
    mday = (times.astype("datetime64[D]") - months.astype("datetime64[D]")).astype(np.int64) + 1
    holiday = np.array(["None"] * ROWS, dtype=object)
    for (m, d), name in HOLIDAYS.items():
        holiday[(month == m) & (mday == d) & (clock == 0)] = name

    kind = rng.choice(len(WEATHER), ROWS, p=[w[2] for w in WEATHER])
    season = np.sin(2 * np.pi * (day - 20) / 365.25 - np.pi / 2)
    temp = 281.0 - 13.0 * season + 4.0 * np.sin(2 * np.pi * (clock - 9) / 24) \
        + rng.normal(0.0, 2.5, ROWS)
    wet = np.isin(kind, [3, 5, 7])
    rain = np.where(wet, rng.exponential(0.8, ROWS), 0.0)
    snow = np.where(kind == 4, rng.exponential(0.2, ROWS), 0.0)
    clouds = np.where(kind == 1, 1, rng.integers(20, 101, ROWS))

    shape = (np.maximum(0.08, 0.55 - 0.45 * np.cos(2 * np.pi * (clock - 3) / 24))
             + 0.25 * np.exp(-((clock - 7) / 1.2) ** 2)
             + 0.25 * np.exp(-((clock - 16) / 1.5) ** 2))
    factor = np.where(weekday < 5, 1.0, 0.75) * np.where(holiday == "None", 1.0, 0.6)
    volume = np.maximum(0, 6500 * factor * shape + rng.normal(0.0, 250.0, ROWS)).astype(int)

    lines = [HEADER]
    variant = 0
    for i in range(ROWS):
        main, desc, _ = WEATHER[kind[i]]
        fields = [holiday[i], "0.0" if i in cold else f"{temp[i]:.2f}",
                  f"{rain[i]:.2f}", f"{snow[i]:.2f}", str(clouds[i]), main, desc,
                  stamps[i], str(volume[i])]
        if i in malformed:
            lines.append(_malformed(variant % 5, fields))
            variant += 1
        else:
            lines.append(",".join(fields))
    return "\n".join(lines) + "\n"


def write_csv(path, seed: int) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(generate(seed))
