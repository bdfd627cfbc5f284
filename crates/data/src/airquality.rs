//! Synthetic Beijing-style multi-site air-quality dataset.
//!
//! Substitute for the UCI Beijing Multi-Site Air-Quality dataset used in
//! experiment 2 (§3.2): hourly measurements from 12 monitoring sites,
//! 2013-03-01 00:00 through 2017-02-28 23:00 — exactly **35,064 tuples
//! per site** (1461 days × 24 h, 2016 being a leap year), matching the
//! paper's per-region count.
//!
//! The NO2 target carries the structure the forecasting experiment
//! needs: an annual cycle (higher in winter), a daily double-peak
//! (rush hours), dependence on wind speed (dispersion) and temperature,
//! and AR(1) noise — so auto-regressive models work, exogenous weather
//! attributes genuinely help (ARIMAX), and pollution of the numeric
//! attributes degrades forecasts the way Figures 6 and 7 show.
//! A small fraction of NO2 readings is missing (NULL), which the
//! experiment pipeline imputes with forward fill exactly as the paper
//! does.

use icewafl_types::{DataType, Duration, Schema, Timestamp, Tuple, Value};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use rand_distr::{Distribution, Normal};
use std::f64::consts::PI;

/// The 12 monitoring sites of the original dataset.
pub const STATIONS: [&str; 12] = [
    "Aotizhongxin",
    "Changping",
    "Dingling",
    "Dongsi",
    "Guanyuan",
    "Gucheng",
    "Huairou",
    "Nongzhanguan",
    "Shunyi",
    "Tiantan",
    "Wanliu",
    "Wanshouxigong",
];

/// Hourly tuples per station (4 years, one leap year).
pub const TUPLES_PER_STATION: usize = 35_064;

/// The stream schema (one stream per station).
pub fn schema() -> Schema {
    Schema::from_pairs([
        ("Time", DataType::Timestamp),
        ("station", DataType::Str),
        ("NO2", DataType::Float),
        ("PM25", DataType::Float),
        ("PM10", DataType::Float),
        ("SO2", DataType::Float),
        ("CO", DataType::Float),
        ("O3", DataType::Float),
        ("TEMP", DataType::Float),
        ("PRES", DataType::Float),
        ("DEWP", DataType::Float),
        ("RAIN", DataType::Float),
        ("WSPM", DataType::Float),
        ("wd", DataType::Str),
    ])
    .expect("static schema is valid")
}

/// First timestamp: 2013-03-01 00:00.
pub fn stream_start() -> Timestamp {
    Timestamp::from_ymd(2013, 3, 1).expect("valid date")
}

const WIND_DIRECTIONS: [&str; 8] = ["N", "NE", "E", "SE", "S", "SW", "W", "NW"];

/// Deterministic per-station offsets (derived from the station name) so
/// the 12 regions differ but reproducibly so.
fn station_profile(station: &str) -> (f64, f64) {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in station.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    // NO2 base offset in [−8, 8], urban-ness factor in [0.8, 1.2].
    let base = ((h % 1000) as f64 / 1000.0 - 0.5) * 16.0;
    let urban = 0.8 + ((h >> 10) % 1000) as f64 / 1000.0 * 0.4;
    (base, urban)
}

/// Generates the full stream of one station with the default seed.
pub fn generate_station(station: &str) -> Vec<Tuple> {
    generate_station_seeded(station, 2013, TUPLES_PER_STATION)
}

/// Generates `n` hourly tuples for a station from an explicit seed.
pub fn generate_station_seeded(station: &str, seed: u64, n: usize) -> Vec<Tuple> {
    let mut rng = StdRng::seed_from_u64(seed ^ station_profile(station).0.to_bits());
    let noise = Normal::new(0.0, 1.0).expect("valid sigma");
    let (no2_base, urban) = station_profile(station);
    let start = stream_start();
    let mut tuples = Vec::with_capacity(n);
    // AR(1) states.
    let mut temp_ar = 0.0f64;
    let mut no2_ar = 0.0f64;
    let mut wind_ar = 0.0f64;
    for i in 0..n {
        let ts = start + Duration::from_hours(i as i64);
        let hour = ts.fractional_hour_of_day();
        let day_of_year = (i / 24) % 365;
        let annual = 2.0 * PI * day_of_year as f64 / 365.0;
        // Temperature: annual cycle (−3 °C Jan, 27 °C Jul around 12)
        // plus daily cycle plus slow AR(1) weather.
        temp_ar = 0.95 * temp_ar + noise.sample(&mut rng) * 1.2;
        // The stream starts in March (doy 0 ≈ March 1): shift so the
        // annual minimum falls in January.
        let season = -(annual + 2.0 * PI * 59.0 / 365.0).cos();
        let temp = 12.0 + 15.0 * season + 4.0 * ((hour - 14.0) * PI / 12.0).cos() + temp_ar;
        // Wind speed: AR(1), non-negative.
        wind_ar = 0.85 * wind_ar + noise.sample(&mut rng) * 0.6;
        let wspm = (1.8 + wind_ar).max(0.0);
        // NO2: winter-high annual cycle, rush-hour double peak,
        // dispersed by wind, plus AR(1).
        no2_ar = 0.88 * no2_ar + noise.sample(&mut rng) * 4.0;
        let rush = 8.0 * (-((hour - 8.0) / 2.5).powi(2)).exp()
            + 10.0 * (-((hour - 19.0) / 3.0).powi(2)).exp();
        let winter = 14.0 * (0.5 - 0.5 * season); // high when season low
        let no2 =
            (urban * (32.0 + no2_base + winter + rush) - 4.0 * wspm + no2_ar).clamp(1.0, 280.0);
        // Correlated co-pollutants.
        let pm25 = (no2 * 1.6 + noise.sample(&mut rng) * 12.0).clamp(1.0, 600.0);
        let pm10 = (pm25 * 1.3 + noise.sample(&mut rng) * 15.0).clamp(1.0, 800.0);
        let so2 = (no2 * 0.35 + noise.sample(&mut rng) * 4.0).clamp(0.5, 300.0);
        let co = (no2 * 22.0 + noise.sample(&mut rng) * 120.0).clamp(100.0, 8000.0);
        // Ozone: anti-correlated with NO2, sun-driven.
        let o3 = (90.0 - no2 * 0.5
            + 30.0 * ((hour - 14.0) * PI / 12.0).cos()
            + noise.sample(&mut rng) * 8.0)
            .clamp(1.0, 300.0);
        let pres = 1013.0 - temp * 0.6 + noise.sample(&mut rng) * 2.0;
        let dewp = temp - rng.random_range(2.0..12.0);
        let rain = if rng.random_bool(0.06) {
            rng.random_range(0.1..8.0)
        } else {
            0.0
        };
        let wd = WIND_DIRECTIONS[rng.random_range(0..WIND_DIRECTIONS.len())];
        // ~1.5 % of NO2 readings are missing, as in the real dataset.
        let no2_value = if rng.random_bool(0.015) {
            Value::Null
        } else {
            Value::Float(no2)
        };
        tuples.push(Tuple::new(vec![
            Value::Timestamp(ts),
            Value::Str(station.into()),
            no2_value,
            Value::Float(pm25),
            Value::Float(pm10),
            Value::Float(so2),
            Value::Float(co),
            Value::Float(o3),
            Value::Float(temp),
            Value::Float(pres),
            Value::Float(dewp),
            Value::Float(rain),
            Value::Float(wspm),
            Value::Str(wd.into()),
        ]));
    }
    tuples
}

#[cfg(test)]
mod tests {
    use super::*;

    fn f(t: &Tuple, idx: usize) -> Option<f64> {
        t.get(idx).unwrap().as_f64()
    }

    #[test]
    fn per_station_count_matches_paper() {
        // Verify the arithmetic rather than generating 35k tuples here:
        // 2013-03-01 .. 2017-02-28 inclusive.
        let start = stream_start();
        let end = Timestamp::from_ymd_hms(2017, 2, 28, 23, 0, 0).unwrap();
        let hours = end.hours_since(start) as usize + 1;
        assert_eq!(hours, TUPLES_PER_STATION);
        assert_eq!(TUPLES_PER_STATION, 35_064);
    }

    #[test]
    fn full_generation_shape() {
        let data = generate_station_seeded("Wanshouxigong", 1, 2000);
        assert_eq!(data.len(), 2000);
        let s = schema();
        for t in data.iter().take(100) {
            s.validate(t).unwrap();
        }
        // Hourly cadence.
        let t0 = data[0].get(0).unwrap().as_timestamp().unwrap();
        let t1 = data[1].get(0).unwrap().as_timestamp().unwrap();
        assert_eq!(t1 - t0, Duration::from_hours(1));
    }

    #[test]
    fn no2_has_daily_structure() {
        // Rush hours (19:00) must average clearly above pre-dawn (04:00)
        // over many days.
        let data = generate_station_seeded("Gucheng", 7, 24 * 200);
        let mean_at = |h: u32| {
            let vals: Vec<f64> = data
                .iter()
                .filter(|t| t.get(0).unwrap().as_timestamp().unwrap().hour_of_day() == h)
                .filter_map(|t| f(t, 2))
                .collect();
            vals.iter().sum::<f64>() / vals.len() as f64
        };
        assert!(
            mean_at(19) > mean_at(4) + 4.0,
            "rush {} vs dawn {}",
            mean_at(19),
            mean_at(4)
        );
    }

    #[test]
    fn no2_has_annual_structure() {
        let data = generate_station_seeded("Wanliu", 7, 24 * 730);
        let mean_month = |m: u32| {
            let vals: Vec<f64> = data
                .iter()
                .filter(|t| t.get(0).unwrap().as_timestamp().unwrap().month() == m)
                .filter_map(|t| f(t, 2))
                .collect();
            vals.iter().sum::<f64>() / vals.len() as f64
        };
        assert!(
            mean_month(1) > mean_month(7) + 5.0,
            "winter NO2 above summer"
        );
    }

    #[test]
    fn temperature_annual_cycle() {
        let data = generate_station_seeded("Dongsi", 3, 24 * 730);
        let mean_month = |m: u32| {
            let vals: Vec<f64> = data
                .iter()
                .filter(|t| t.get(0).unwrap().as_timestamp().unwrap().month() == m)
                .filter_map(|t| f(t, 8))
                .collect();
            vals.iter().sum::<f64>() / vals.len() as f64
        };
        assert!(
            mean_month(7) > mean_month(1) + 15.0,
            "July warmer than January"
        );
    }

    #[test]
    fn wind_disperses_no2() {
        // Correlation between WSPM and NO2 must be negative.
        let data = generate_station_seeded("Shunyi", 5, 24 * 100);
        let pairs: Vec<(f64, f64)> = data
            .iter()
            .filter_map(|t| Some((f(t, 12)?, f(t, 2)?)))
            .collect();
        let n = pairs.len() as f64;
        let mean_w = pairs.iter().map(|p| p.0).sum::<f64>() / n;
        let mean_n = pairs.iter().map(|p| p.1).sum::<f64>() / n;
        let cov: f64 = pairs
            .iter()
            .map(|p| (p.0 - mean_w) * (p.1 - mean_n))
            .sum::<f64>()
            / n;
        assert!(cov < 0.0, "wind/NO2 covariance {cov} must be negative");
    }

    #[test]
    fn stations_differ_but_reproducibly() {
        let a = generate_station_seeded("Gucheng", 1, 100);
        let b = generate_station_seeded("Wanliu", 1, 100);
        assert_ne!(a, b, "stations have different profiles");
        assert_eq!(a, generate_station_seeded("Gucheng", 1, 100));
    }

    #[test]
    fn some_no2_values_missing() {
        let data = generate_station_seeded("Tiantan", 9, 10_000);
        let nulls = data.iter().filter(|t| t.get(2).unwrap().is_null()).count();
        // ~1.5% of 10k = 150, allow wide margin.
        assert!((80..=250).contains(&nulls), "nulls {nulls}");
    }

    #[test]
    fn values_within_physical_ranges() {
        let data = generate_station_seeded("Changping", 11, 5_000);
        for t in &data {
            if let Some(no2) = f(t, 2) {
                assert!((1.0..=280.0).contains(&no2));
            }
            let wspm = f(t, 12).unwrap();
            assert!(wspm >= 0.0);
            let temp = f(t, 8).unwrap();
            assert!((-40.0..=50.0).contains(&temp), "temp {temp}");
        }
    }
}
