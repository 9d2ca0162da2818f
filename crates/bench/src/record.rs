//! The one benchmark record type, its canonical text form and its
//! strict reader.
//!
//! Every committed baseline under `results/` is a [`Record`] (abridged):
//!
//! ```text
//! {
//!   "bench": "video_stages",
//!   "config": {
//!     "array": "640x480",
//!     "pooling_k": 2
//!   },
//!   "metrics": [
//!     {"name": "keyframes", "value": 6, "unit": "count"},
//!     {"name": "mean_roi_iou", "value": 0.5654502536747553, "unit": "ratio"}
//!   ]
//! }
//! ```
//!
//! A record holds only facts that depend on nothing but the seed and
//! the config, so `bench_compare` gates every metric **exactly**. Wall
//! clock never enters a record; timing is perfbench's job.
//!
//! Integers are written as integers. Floats use Rust's shortest
//! round-trip `{}` form (with `.0` appended to integral values, so the
//! two never look alike) and compare by `to_bits`. The unit fixes a
//! metric's type: `count`, `B` and `bit` are integers, `bool` is a
//! boolean, anything else is a float.
//!
//! [`Record::parse`] accepts exactly the text [`Record::to_text`]
//! emits: truncation at any byte, trailing bytes, a duplicate key,
//! `NaN`/`inf`, a non-canonical number or a value of the wrong type for
//! its unit is an error, never a panic.

use std::fmt;
use std::ops::RangeInclusive;
use std::path::Path;
use std::time::Instant;

/// Largest record file the reader accepts, bytes.
pub const MAX_RECORD_BYTES: u64 = 64 * 1024;

/// Largest array side a committed config may name, pixels.
pub(crate) const MAX_SIDE: u32 = 8192;

/// Largest frame or session count a committed config may name.
pub(crate) const MAX_COUNT: u32 = 100_000;

/// One config or metric value.
#[derive(Debug, Clone)]
pub enum Value {
    /// A non-negative integer.
    Int(u64),
    /// A finite float.
    Float(f64),
    /// A boolean.
    Bool(bool),
    /// A plain string (printable ASCII without `"` or `\`).
    Str(String),
}

/// Floats compare by `to_bits`, so `-0.0 != 0.0` and equality is the
/// exact gate's notion of "the same fact".
impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (Value::Int(a), Value::Int(b)) => a == b,
            (Value::Float(a), Value::Float(b)) => a.to_bits() == b.to_bits(),
            (Value::Bool(a), Value::Bool(b)) => a == b,
            (Value::Str(a), Value::Str(b)) => a == b,
            _ => false,
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(v) => write!(f, "{v}"),
            Value::Float(v) => {
                let text = v.to_string();
                if text.contains('.') {
                    f.write_str(&text)
                } else {
                    write!(f, "{text}.0")
                }
            }
            Value::Bool(v) => write!(f, "{v}"),
            Value::Str(v) => write!(f, "\"{v}\""),
        }
    }
}

impl From<u64> for Value {
    fn from(v: u64) -> Self {
        Value::Int(v)
    }
}

impl From<u32> for Value {
    fn from(v: u32) -> Self {
        Value::Int(v.into())
    }
}

impl From<usize> for Value {
    fn from(v: usize) -> Self {
        Value::Int(v as u64)
    }
}

impl From<f64> for Value {
    /// # Panics
    ///
    /// Panics on NaN or an infinity: a record holds finite facts only.
    fn from(v: f64) -> Self {
        assert!(v.is_finite(), "a record value must be finite, got {v}");
        Value::Float(v)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

impl From<&str> for Value {
    /// # Panics
    ///
    /// Panics on a character the text form cannot hold verbatim.
    fn from(v: &str) -> Self {
        assert!(plain(v), "a record string must be printable ASCII without quotes: {v:?}");
        Value::Str(v.into())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::from(v.as_str())
    }
}

/// Whether `s` can be written between quotes without escaping.
fn plain(s: &str) -> bool {
    s.bytes().all(|b| (b' '..=b'~').contains(&b) && b != b'"' && b != b'\\')
}

/// Whether `value` has the type its unit implies: `count`, `B` and
/// `bit` are integers, `bool` is a boolean, anything else a float.
fn fits(unit: &str, value: &Value) -> bool {
    let integral = matches!(unit, "count" | "B" | "bit");
    match value {
        Value::Int(_) => integral,
        Value::Bool(_) => unit == "bool",
        Value::Float(_) => !integral && unit != "bool",
        Value::Str(_) => false,
    }
}

/// One named fact with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, unique within its record.
    pub name: String,
    /// The fact.
    pub value: Value,
    /// Unit; also fixes the value's type (see the module docs).
    pub unit: String,
}

/// `{bench, config, metrics}`: one benchmark's exact facts.
#[derive(Debug, Clone, PartialEq)]
pub struct Record {
    /// Benchmark name, e.g. `"scenario_stages"`.
    pub bench: String,
    /// The config the facts are a pure function of, in emission order.
    pub config: Vec<(String, Value)>,
    /// The facts, in emission order.
    pub metrics: Vec<Metric>,
}

/// A benchmark whose record is a pure function of its config.
pub trait Bench: Sized {
    /// The record's `bench` name.
    const NAME: &'static str;

    /// Rebuilds the config a committed record names and validates it
    /// through the same fallible builders the measurement uses.
    ///
    /// # Errors
    ///
    /// A one-line diagnostic naming the missing, mistyped or
    /// out-of-range field, or the builder's rejection.
    fn from_record(record: &Record) -> Result<Self, String>;

    /// The record's header: `bench` and config, no metrics yet.
    fn header(&self) -> Record;

    /// Measures the exact facts.
    ///
    /// # Panics
    ///
    /// Panics on a config [`Bench::from_record`] would reject.
    fn record(&self) -> Record;
}

impl Record {
    /// An empty record for `bench`.
    pub fn new(bench: &str) -> Self {
        assert!(plain(bench), "bench name {bench:?} is not a plain string");
        Self { bench: bench.into(), config: Vec::new(), metrics: Vec::new() }
    }

    /// Appends a config entry.
    pub fn with_config(mut self, key: &str, value: impl Into<Value>) -> Self {
        assert!(plain(key), "config key {key:?} is not a plain string");
        self.config.push((key.into(), value.into()));
        self
    }

    /// Appends a metric.
    ///
    /// # Panics
    ///
    /// Panics when the value's type does not match the unit's.
    pub fn with_metric(mut self, name: &str, value: impl Into<Value>, unit: &str) -> Self {
        assert!(plain(name) && plain(unit), "metric {name:?} [{unit:?}] is not plain");
        let metric = Metric { name: name.into(), value: value.into(), unit: unit.into() };
        assert!(
            fits(unit, &metric.value),
            "metric {name} has a {unit} unit but {:?}",
            metric.value
        );
        self.metrics.push(metric);
        self
    }

    /// Appends an integer metric with unit `count`.
    pub fn with_count(self, name: &str, value: impl Into<u64>) -> Self {
        self.with_metric(name, value.into(), "count")
    }

    /// The metric called `name`.
    pub fn metric(&self, name: &str) -> Option<&Value> {
        self.metrics.iter().find(|m| m.name == name).map(|m| &m.value)
    }

    /// The integer metric called `name`.
    pub fn int(&self, name: &str) -> Option<u64> {
        match self.metric(name)? {
            Value::Int(v) => Some(*v),
            _ => None,
        }
    }

    /// The float metric called `name`.
    pub fn float(&self, name: &str) -> Option<f64> {
        match self.metric(name)? {
            Value::Float(v) => Some(*v),
            _ => None,
        }
    }

    fn config_value(&self, key: &str) -> Result<&Value, String> {
        self.config
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
            .ok_or_else(|| format!("config lacks `{key}`"))
    }

    /// The integer config entry `key`, checked against `range`.
    ///
    /// # Errors
    ///
    /// When `key` is missing, not an integer, or outside `range`.
    pub(crate) fn config_int<T>(&self, key: &str, range: RangeInclusive<T>) -> Result<T, String>
    where
        T: TryFrom<u64> + PartialOrd + fmt::Display,
    {
        let v = match self.config_value(key)? {
            Value::Int(v) => *v,
            other => return Err(format!("config `{key}` = {other} is not an integer")),
        };
        match T::try_from(v) {
            Ok(t) if range.contains(&t) => Ok(t),
            _ => {
                Err(format!("config `{key}` = {v} is outside {}..={}", range.start(), range.end()))
            }
        }
    }

    /// The float config entry `key`.
    ///
    /// # Errors
    ///
    /// When `key` is missing or not a float.
    pub(crate) fn config_f64(&self, key: &str) -> Result<f64, String> {
        match self.config_value(key)? {
            Value::Float(v) => Ok(*v),
            other => Err(format!("config `{key}` = {other} is not a float")),
        }
    }

    /// The string config entry `key`.
    ///
    /// # Errors
    ///
    /// When `key` is missing or not a string.
    pub(crate) fn config_str(&self, key: &str) -> Result<&str, String> {
        match self.config_value(key)? {
            Value::Str(v) => Ok(v),
            other => Err(format!("config `{key}` = {other} is not a string")),
        }
    }

    /// The `"array": "WxH"` config entry, each side in `1..=MAX_SIDE`.
    ///
    /// # Errors
    ///
    /// When the entry is missing, not `WxH`, or a side is out of range.
    pub(crate) fn config_array(&self) -> Result<(u32, u32), String> {
        let text = self.config_str("array")?;
        let side = |s: &str| s.parse::<u32>().ok().filter(|v| (1..=MAX_SIDE).contains(v));
        text.split_once('x').and_then(|(w, h)| Some((side(w)?, side(h)?))).ok_or_else(|| {
            format!("config `array` = {text:?} is not WxH with sides in 1..={MAX_SIDE}")
        })
    }

    /// The contracts every record must keep, whatever its baseline:
    /// no drops, bit-identical recovery and blast radius, every
    /// quarantine recovered, every session completed, recovery within
    /// one keyframe interval and replay within its budget. Each entry
    /// names a broken contract.
    pub fn contract_violations(&self) -> Vec<String> {
        let mut broken = Vec::new();
        let config = |key| self.config_int::<u64>(key, 0..=u64::MAX).ok();
        if let Some(dropped) = self.int("dropped").filter(|&d| d != 0) {
            broken.push(format!("`dropped` = {dropped}: admitted sessions were dropped"));
        }
        for flag in ["identical", "others_bit_identical"] {
            if self.metric(flag) == Some(&Value::Bool(false)) {
                broken.push(format!("`{flag}` is false: output diverged from the fault-free twin"));
            }
        }
        if let (Some(recovered), Some(quarantined)) =
            (self.int("recovered"), self.int("quarantined"))
        {
            if recovered != quarantined {
                broken.push(format!("{recovered} of {quarantined} quarantined sessions recovered"));
            }
        }
        if let (Some(completed), Some(sessions)) = (self.int("completed"), config("sessions")) {
            if completed != sessions {
                broken.push(format!("{completed} of {sessions} sessions completed"));
            }
        }
        if let (Some(frames), Some(interval)) =
            (self.int("max_recovery_frames"), config("keyframe_interval"))
        {
            if frames > interval {
                broken.push(format!(
                    "recovery took {frames} frames, over one keyframe interval ({interval})"
                ));
            }
        }
        if let (Some(replay), Some(budget)) =
            (self.int("replay_frames"), self.int("replay_budget_frames"))
        {
            if replay > budget {
                broken.push(format!("replay took {replay} frames, over its budget of {budget}"));
            }
        }
        broken
    }

    /// Every way `fresh` differs from this (committed) record, one
    /// entry per metric; empty when the facts reproduce exactly.
    pub fn diff(&self, fresh: &Record) -> Vec<String> {
        let mut out = Vec::new();
        for m in &self.metrics {
            match fresh.metrics.iter().find(|f| f.name == m.name) {
                None => out.push(format!("`{}` is missing from the fresh record", m.name)),
                Some(f) if f.unit != m.unit || f.value != m.value => out.push(format!(
                    "`{}`: committed {} {}, fresh {} {}",
                    m.name, m.value, m.unit, f.value, f.unit
                )),
                Some(_) => {}
            }
        }
        for f in &fresh.metrics {
            if self.metric(&f.name).is_none() {
                out.push(format!("`{}` is new: the committed record lacks it", f.name));
            }
        }
        out
    }

    /// The canonical text form (what [`Record::parse`] accepts).
    pub fn to_text(&self) -> String {
        let mut out = format!("{{\n  \"bench\": \"{}\",\n  \"config\": {{\n", self.bench);
        for (i, (key, value)) in self.config.iter().enumerate() {
            let sep = if i + 1 < self.config.len() { "," } else { "" };
            out += &format!("    \"{key}\": {value}{sep}\n");
        }
        out += "  },\n  \"metrics\": [\n";
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i + 1 < self.metrics.len() { "," } else { "" };
            out += &format!(
                "    {{\"name\": \"{}\", \"value\": {}, \"unit\": \"{}\"}}{sep}\n",
                m.name, m.value, m.unit
            );
        }
        out + "  ]\n}\n"
    }

    /// Parses the canonical text form.
    ///
    /// # Errors
    ///
    /// A one-line diagnostic with the byte offset for any text
    /// [`Record::to_text`] would not emit.
    pub fn parse(text: &str) -> Result<Record, String> {
        let mut c = Cursor { text, at: 0 };
        c.expect("{\n  \"bench\": ")?;
        let bench = c.string()?.to_string();
        c.expect(",\n  \"config\": {\n")?;
        let mut config: Vec<(String, Value)> = Vec::new();
        if !c.eat("  },\n") {
            loop {
                c.expect("    ")?;
                let at = c.at;
                let key = c.string()?;
                if config.iter().any(|(k, _)| k == key) {
                    return Err(format!("duplicate config key `{key}` at byte {at}"));
                }
                c.expect(": ")?;
                let value = c.value(key)?;
                config.push((key.into(), value));
                if !c.more("\n  },\n")? {
                    break;
                }
            }
        }
        c.expect("  \"metrics\": [\n")?;
        let mut metrics: Vec<Metric> = Vec::new();
        if !c.eat("  ]\n") {
            loop {
                let at = c.at;
                c.expect("    {\"name\": ")?;
                let name = c.string()?;
                if metrics.iter().any(|m| m.name == name) {
                    return Err(format!("duplicate metric `{name}` at byte {at}"));
                }
                c.expect(", \"value\": ")?;
                let value = c.value(name)?;
                c.expect(", \"unit\": ")?;
                let unit = c.string()?;
                c.expect("}")?;
                let metric = Metric { name: name.into(), value, unit: unit.into() };
                if !fits(unit, &metric.value) {
                    return Err(format!(
                        "metric `{name}` = {} does not fit its unit `{unit}` at byte {at}",
                        metric.value
                    ));
                }
                metrics.push(metric);
                if !c.more("\n  ]\n")? {
                    break;
                }
            }
        }
        c.expect("}\n")?;
        if c.at != text.len() {
            return Err(format!("{} trailing bytes after the record", text.len() - c.at));
        }
        Ok(Record { bench, config, metrics })
    }

    /// Reads and parses a record file of at most [`MAX_RECORD_BYTES`].
    ///
    /// # Errors
    ///
    /// When the file cannot be read, is too large or does not parse.
    pub fn read(path: &Path) -> Result<Record, String> {
        use std::io::Read;
        let file = std::fs::File::open(path).map_err(|e| format!("cannot read: {e}"))?;
        let mut bytes = Vec::new();
        file.take(MAX_RECORD_BYTES + 1)
            .read_to_end(&mut bytes)
            .map_err(|e| format!("cannot read: {e}"))?;
        if bytes.len() as u64 > MAX_RECORD_BYTES {
            return Err(format!("larger than the {MAX_RECORD_BYTES}-byte record cap"));
        }
        let text = String::from_utf8(bytes).map_err(|e| format!("not UTF-8: {e}"))?;
        Record::parse(&text)
    }

    /// Writes the canonical text form to `path`, creating its directory.
    ///
    /// # Errors
    ///
    /// When the directory or the file cannot be written.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        std::fs::write(path, self.to_text())
    }
}

/// Validates `config` (exit 2 with a diagnostic when
/// [`Bench::from_record`] rejects it), measures its record, prints each
/// fact and the wall clock it took (stdout only: wall clock never
/// enters a record), asserts the contracts and writes the record to
/// `out`.
///
/// # Panics
///
/// Panics when a contract is broken or `out` is not writable.
pub fn measure_and_write<B: Bench>(config: &B, out: &Path) {
    if let Err(e) = B::from_record(&config.header()) {
        eprintln!("{}: error: {e}", B::NAME);
        std::process::exit(2);
    }
    let start = Instant::now();
    let record = config.record();
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    for m in &record.metrics {
        println!("  {:<28} {} {}", m.name, m.value, m.unit);
    }
    println!("  wall clock {wall_ms:.1} ms (not recorded; timing is perfbench's job)");
    let broken = record.contract_violations();
    assert!(broken.is_empty(), "{} broke its contracts: {broken:?}", record.bench);
    record.write(out).unwrap_or_else(|e| panic!("cannot write {}: {e}", out.display()));
    println!("wrote {}", out.display());
}

/// A byte cursor over the exact emitted shape.
struct Cursor<'a> {
    text: &'a str,
    at: usize,
}

impl<'a> Cursor<'a> {
    fn rest(&self) -> &'a str {
        &self.text[self.at..]
    }

    fn eat(&mut self, literal: &str) -> bool {
        let hit = self.rest().starts_with(literal);
        if hit {
            self.at += literal.len();
        }
        hit
    }

    /// Eats the `,\n` before another item (true) or `end` (false).
    fn more(&mut self, end: &str) -> Result<bool, String> {
        if self.eat(",\n") {
            Ok(true)
        } else if ",\n".starts_with(self.rest()) {
            Err(format!("truncated at byte {} (expected {end:?})", self.text.len()))
        } else {
            self.expect(end).map(|()| false)
        }
    }

    fn expect(&mut self, literal: &str) -> Result<(), String> {
        if self.eat(literal) {
            Ok(())
        } else if literal.starts_with(self.rest()) {
            Err(format!("truncated at byte {} (expected {literal:?})", self.text.len()))
        } else {
            Err(format!("malformed at byte {}: expected {literal:?}", self.at))
        }
    }

    /// A quoted plain string (see [`plain`]).
    fn string(&mut self) -> Result<&'a str, String> {
        self.expect("\"")?;
        let rest = self.rest();
        let Some(end) = rest.find('"') else {
            return Err(format!("truncated at byte {} inside a string", self.text.len()));
        };
        let s = &rest[..end];
        if !plain(s) {
            return Err(format!("string at byte {} holds an escape or control byte", self.at));
        }
        self.at += end + 1;
        Ok(s)
    }

    /// A value for `key`: string, boolean, integer or float.
    fn value(&mut self, key: &str) -> Result<Value, String> {
        let at = self.at;
        if self.rest().starts_with('"') {
            return Ok(Value::Str(self.string()?.into()));
        }
        if self.eat("true") {
            return Ok(Value::Bool(true));
        }
        if self.eat("false") {
            return Ok(Value::Bool(false));
        }
        let rest = self.rest();
        let len = rest
            .find(|ch: char| !(ch.is_ascii_digit() || "+-.eE".contains(ch)))
            .unwrap_or(rest.len());
        if len == rest.len() || "true".starts_with(rest) || "false".starts_with(rest) {
            return Err(format!("truncated at byte {} inside `{key}`", self.text.len()));
        }
        let token = &rest[..len];
        if token.is_empty() {
            return Err(format!("`{key}` at byte {at}: expected a value"));
        }
        let value = if token.contains(['.', 'e', 'E']) {
            match token.parse::<f64>() {
                Ok(v) if v.is_finite() => Value::Float(v),
                _ => return Err(format!("`{key}` = {token} at byte {at} is not a finite float")),
            }
        } else if token.starts_with('-') {
            return Err(format!("`{key}` = {token} at byte {at} is a negative integer"));
        } else {
            match token.parse::<u64>() {
                Ok(v) => Value::Int(v),
                Err(_) => return Err(format!("`{key}` = {token} at byte {at} is not a u64")),
            }
        };
        if value.to_string() != token {
            return Err(format!("`{key}` = {token} at byte {at} is not in canonical form"));
        }
        self.at += len;
        Ok(value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A record exercising every value type and the float corners.
    fn sample() -> Record {
        Record::new("sample_stages")
            .with_config("array", "64x48")
            .with_config("pooling_k", 2u32)
            .with_config("seed", u64::MAX)
            .with_config("crash_rate", 0.15)
            .with_count("frames", 31u64)
            .with_metric("snapshot_bytes", 3805u64, "B")
            .with_metric("energy_mj", 0.652_350_123_456_789, "mJ")
            .with_metric("tiny", 5e-324, "V")
            .with_metric("huge", 1.5e300, "V")
            .with_metric("integral", 2.0, "ratio")
            .with_metric("negative_zero", -0.0, "V")
            .with_metric("third", 1.0 / 3.0, "ratio")
            .with_metric("identical", true, "bool")
    }

    #[test]
    fn record_roundtrips_through_text_bit_for_bit() {
        let record = sample();
        let text = record.to_text();
        let back = Record::parse(&text).expect("the emitted form parses");
        assert_eq!(back, record);
        for (a, b) in back.metrics.iter().zip(&record.metrics) {
            if let (Value::Float(x), Value::Float(y)) = (&a.value, &b.value) {
                assert_eq!(x.to_bits(), y.to_bits(), "{} moved", a.name);
            }
        }
        assert_eq!(back.to_text(), text);
        assert!(text.contains("\"value\": 2.0,"), "integral floats keep a `.0`: {text}");
        assert!(text.contains("\"value\": -0.0,"), "-0.0 keeps its sign: {text}");
        // Empty config and metric lists round-trip too.
        let empty = Record::new("empty");
        assert_eq!(Record::parse(&empty.to_text()), Ok(empty));
    }

    #[test]
    fn truncation_at_any_byte_is_an_error() {
        let text = sample().to_text();
        for cut in 0..text.len() {
            let err = Record::parse(&text[..cut]).expect_err("a truncated record must not parse");
            assert!(err.starts_with("truncated at byte"), "cut {cut}: {err}");
        }
    }

    #[test]
    fn non_canonical_text_is_rejected_with_a_diagnostic() {
        let text = sample().to_text();
        let cases = [
            (format!("{text}\n"), "trailing"),
            (text.replace("\"value\": 31,", "\"value\": 31.5,"), "does not fit its unit"),
            (text.replace("\"value\": 31,", "\"value\": 031,"), "canonical"),
            (text.replace("\"value\": 31,", "\"value\": -1,"), "negative"),
            (text.replace("\"value\": 31,", "\"value\": NaN,"), "expected a value"),
            (text.replace("\"value\": 31,", "\"value\": inf,"), "expected a value"),
            (text.replace("\"value\": 31,", "\"value\": 1e999,"), "finite"),
            (text.replace("\"value\": 2.0,", "\"value\": 2,"), "does not fit its unit"),
            (text.replace("\"value\": 2.0,", "\"value\": 2e0,"), "canonical"),
            (text.replace("\"value\": 2.0,", "\"value\": 2.00,"), "canonical"),
            (text.replace("\"value\": true,", "\"value\": 1,"), "does not fit its unit"),
            (text.replace("\"name\": \"tiny\"", "\"name\": \"frames\""), "duplicate metric"),
            (text.replace("\"seed\"", "\"array\""), "duplicate config key"),
            (text.replace("\"array\": ", "\"array\":  "), "expected a value"),
            (text.replacen("{\n", "{ \n", 1), "malformed at byte 0"),
            (text.replace("64x48", "64\\x48"), "escape"),
            (text.replace("\"value\": 31,", "\"value\": 99999999999999999999,"), "u64"),
        ];
        for (bad, expect) in cases {
            let err = Record::parse(&bad).expect_err(expect);
            assert!(err.contains(expect), "expected {expect:?} in {err:?}");
        }
    }

    #[test]
    fn config_getters_check_type_and_range() {
        let r = sample();
        assert_eq!(r.config_array(), Ok((64, 48)));
        assert_eq!(r.config_int::<u32>("pooling_k", 1..=8), Ok(2));
        assert!(r.config_int::<u32>("pooling_k", 3..=8).unwrap_err().contains("outside"));
        assert!(r.config_int::<u32>("seed", 0..=u32::MAX).unwrap_err().contains("outside"));
        assert!(r.config_int::<u32>("array", 0..=1).unwrap_err().contains("not an integer"));
        assert!(r.config_int::<u32>("missing", 0..=1).unwrap_err().contains("lacks `missing`"));
        assert_eq!(r.config_f64("crash_rate"), Ok(0.15));
        for bad in ["0x48", "64x", "64*48", "99999x48"] {
            let r = Record::new("a").with_config("array", bad);
            assert!(r.config_array().unwrap_err().contains(bad), "{bad}");
        }
    }

    #[test]
    fn diff_names_each_moved_metric_and_contracts_hold_per_record() {
        let committed = sample();
        assert!(committed.diff(&committed.clone()).is_empty());
        let mut fresh = committed.clone();
        fresh.metrics[2].value =
            Value::Float(f64::from_bits(0.652_350_123_456_789f64.to_bits() + 1));
        fresh.metrics.pop();
        let diff = committed.diff(&fresh);
        assert_eq!(diff.len(), 2, "{diff:?}");
        assert!(diff[0].starts_with("`energy_mj`"), "{diff:?}");
        assert!(diff[1].contains("`identical` is missing"), "{diff:?}");

        assert!(committed.contract_violations().is_empty());
        let broken = Record::new("b")
            .with_config("sessions", 4u32)
            .with_config("keyframe_interval", 4u32)
            .with_count("dropped", 1u64)
            .with_count("completed", 3u64)
            .with_count("quarantined", 2u64)
            .with_count("recovered", 1u64)
            .with_count("max_recovery_frames", 5u64)
            .with_count("replay_frames", 9u64)
            .with_count("replay_budget_frames", 8u64)
            .with_metric("identical", false, "bool")
            .with_metric("others_bit_identical", false, "bool");
        assert_eq!(broken.contract_violations().len(), 7, "{:?}", broken.contract_violations());
    }
}
