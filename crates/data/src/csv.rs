//! Minimal CSV reader/writer, from scratch (RFC 4180 quoting).
//!
//! Icewafl's Fig. 2 pipeline reads batch input and persists clean and
//! dirty streams; this module provides that I/O for [`Tuple`]s under a
//! [`Schema`].

use icewafl_types::{Error, Result, Schema, Tuple, Value};
use std::borrow::Cow;
use std::io::{BufRead, Write};
use std::iter;

/// Serializes one field with RFC 4180 quoting when needed: a field
/// holding a separator, a quote or a line break (`\n` or `\r`) is
/// quoted, so it reads back whole, trailing `\r` included.
pub(crate) fn write_field(out: &mut String, field: &str) {
    if field.contains([',', '"', '\n', '\r']) {
        out.push('"');
        for c in field.chars() {
            if c == '"' {
                out.push('"');
            }
            out.push(c);
        }
        out.push('"');
    } else {
        out.push_str(field);
    }
}

/// Writes a header plus one line per tuple.
pub fn write_csv<'a>(
    w: &mut impl Write,
    schema: &Schema,
    tuples: impl IntoIterator<Item = &'a Tuple>,
) -> Result<()> {
    let mut line = String::new();
    for (i, f) in schema.fields().iter().enumerate() {
        if i > 0 {
            line.push(',');
        }
        write_field(&mut line, &f.name);
    }
    line.push('\n');
    w.write_all(line.as_bytes())?;
    for t in tuples {
        line.clear();
        for (i, v) in t.values().iter().enumerate() {
            if i > 0 {
                line.push(',');
            }
            write_field(&mut line, &v.to_string());
        }
        line.push('\n');
        w.write_all(line.as_bytes())?;
    }
    Ok(())
}

/// Reads one record into `record`, without its line terminator (`\n`
/// or `\r\n`): one line, or more while a quoted field is open, since
/// a quoted field may hold line breaks. `Ok(false)` at the end of the
/// input. A record the input cuts off inside a quote is returned as
/// it is, and splitting it reports the unterminated quote.
pub(crate) fn read_record(r: &mut impl BufRead, record: &mut String) -> Result<bool> {
    record.clear();
    // A quote opens or closes a quoted field, and an escaped quote
    // inside one is two: the field is open while the count is odd.
    let mut quotes = 0;
    loop {
        let from = record.len();
        if r.read_line(record)? == 0 {
            return Ok(from > 0);
        }
        quotes += record[from..].bytes().filter(|&b| b == b'"').count();
        if quotes % 2 == 0 {
            break;
        }
    }
    if record.ends_with('\n') {
        record.pop();
        if record.ends_with('\r') {
            record.pop();
        }
    }
    Ok(true)
}

/// Splits one CSV record, honoring quotes. A field without quotes is
/// borrowed from the record, one with quotes is owned. Returns an error
/// on an unterminated quote.
fn split_record(line: &str) -> Result<Vec<Cow<'_, str>>> {
    let mut fields = Vec::new();
    // The field being read starts at `start`; once it has a quote, its
    // text differs from that slice of the line and is built in `quoted`.
    let mut start = 0;
    let mut quoted: Option<String> = None;
    let mut in_quotes = false;
    let mut chars = line.char_indices().peekable();
    while let Some((at, c)) = chars.next() {
        match c {
            '"' if in_quotes => {
                if chars.next_if(|&(_, c)| c == '"').is_some() {
                    quoted.get_or_insert_with(String::new).push('"');
                } else {
                    in_quotes = false;
                }
            }
            '"' => {
                in_quotes = true;
                quoted.get_or_insert_with(|| line[start..at].to_owned());
            }
            ',' if !in_quotes => {
                fields.push(
                    quoted
                        .take()
                        .map_or(Cow::Borrowed(&line[start..at]), Cow::Owned),
                );
                start = at + 1;
            }
            c => {
                if let Some(field) = &mut quoted {
                    field.push(c);
                }
            }
        }
    }
    if in_quotes {
        return Err(Error::parse(line, "CSV record (unterminated quote)"));
    }
    fields.push(quoted.map_or(Cow::Borrowed(&line[start..]), Cow::Owned));
    Ok(fields)
}

/// Checks a header line against the schema's attribute names, in
/// order.
pub(crate) fn validate_header(header_line: &str, schema: &Schema) -> Result<()> {
    let header = split_record(header_line)?;
    let expected: Vec<&str> = schema.fields().iter().map(|f| f.name.as_str()).collect();
    if header != expected {
        return Err(Error::SchemaMismatch {
            detail: format!("CSV header {header:?} does not match schema {expected:?}"),
        });
    }
    Ok(())
}

/// Parses one data record against the schema. Values are parsed from
/// their trimmed text, but a quoted string keeps the whitespace around
/// it: a trailing `\r` is one reason [`write_field`] quotes.
pub(crate) fn parse_record(line: &str, schema: &Schema) -> Result<Tuple> {
    let fields = split_record(line)?;
    if fields.len() != schema.len() {
        return Err(Error::SchemaMismatch {
            detail: format!(
                "CSV row has {} fields, schema has {}",
                fields.len(),
                schema.len()
            ),
        });
    }
    let mut tuple: Tuple = iter::repeat_n(Value::Null, fields.len()).collect();
    for ((slot, raw), f) in tuple
        .values_mut()
        .iter_mut()
        .zip(&fields)
        .zip(schema.fields())
    {
        *slot = match (Value::parse(raw, f.dtype)?, raw) {
            (Value::Str(trimmed), Cow::Owned(quoted)) if trimmed.len() != quoted.len() => {
                Value::Str(quoted.as_str().into())
            }
            (value, _) => value,
        };
    }
    Ok(tuple)
}

/// Reads a CSV with a header line, parsing fields per the schema's
/// types. The header must name exactly the schema's attributes, in
/// order.
pub fn read_csv(r: &mut impl BufRead, schema: &Schema) -> Result<Vec<Tuple>> {
    let mut record = String::new();
    if !read_record(r, &mut record)? {
        return Err(Error::parse("", "CSV header"));
    }
    validate_header(&record, schema)?;
    let mut tuples = Vec::new();
    let mut row = 0usize;
    while read_record(r, &mut record)? {
        if record.is_empty() {
            continue;
        }
        row += 1;
        tuples.push(parse_record(&record, schema).map_err(|e| match e {
            // Shape errors name the offending row; parse errors already
            // echo the offending input verbatim.
            Error::SchemaMismatch { detail } => Error::SchemaMismatch {
                detail: format!("CSV row {row}: {detail}"),
            },
            other => other,
        })?);
    }
    Ok(tuples)
}

#[cfg(test)]
mod tests {
    use super::*;
    use icewafl_types::{DataType, Timestamp};
    use std::io::Cursor;

    fn schema() -> Schema {
        Schema::from_pairs([
            ("Time", DataType::Timestamp),
            ("x", DataType::Float),
            ("label", DataType::Str),
        ])
        .unwrap()
    }

    fn sample() -> Vec<Tuple> {
        vec![
            Tuple::new(vec![
                Value::Timestamp(Timestamp::from_ymd(2016, 2, 27).unwrap()),
                Value::Float(1.5),
                Value::Str("plain".into()),
            ]),
            Tuple::new(vec![
                Value::Timestamp(Timestamp::from_ymd(2016, 2, 28).unwrap()),
                Value::Null,
                Value::Str("with,comma and \"quotes\"".into()),
            ]),
        ]
    }

    #[test]
    fn round_trip() {
        let mut buf = Vec::new();
        write_csv(&mut buf, &schema(), &sample()).unwrap();
        let text = String::from_utf8(buf.clone()).unwrap();
        assert!(text.starts_with("Time,x,label\n"));
        assert!(text.contains(r#""with,comma and ""quotes""""#));
        let back = read_csv(&mut Cursor::new(buf), &schema()).unwrap();
        assert_eq!(back, sample());
    }

    #[test]
    fn null_round_trips_as_empty_field() {
        let mut buf = Vec::new();
        write_csv(&mut buf, &schema(), &sample()).unwrap();
        let back = read_csv(&mut Cursor::new(buf), &schema()).unwrap();
        assert!(back[1].get(1).unwrap().is_null());
    }

    #[test]
    fn rejects_wrong_header() {
        let data = "a,b,c\n";
        assert!(read_csv(&mut Cursor::new(data.as_bytes()), &schema()).is_err());
    }

    #[test]
    fn rejects_wrong_arity() {
        let data = "Time,x,label\n2016-02-27 00:00:00,1.5\n";
        assert!(read_csv(&mut Cursor::new(data.as_bytes()), &schema()).is_err());
    }

    #[test]
    fn shape_errors_name_the_offending_row() {
        let data = "Time,x,label\n\
            2016-02-27 00:00:00,1.5,ok\n\
            2016-02-27 01:00:00,2.5\n";
        let err = read_csv(&mut Cursor::new(data.as_bytes()), &schema()).unwrap_err();
        assert!(
            err.to_string().contains("CSV row 2"),
            "error locates the bad row: {err}"
        );
    }

    #[test]
    fn rejects_unterminated_quote() {
        let data = "Time,x,label\n2016-02-27 00:00:00,1.5,\"broken\n";
        assert!(read_csv(&mut Cursor::new(data.as_bytes()), &schema()).is_err());
    }

    #[test]
    fn rejects_unparseable_value() {
        let data = "Time,x,label\n2016-02-27 00:00:00,not-a-number,ok\n";
        assert!(read_csv(&mut Cursor::new(data.as_bytes()), &schema()).is_err());
    }

    #[test]
    fn skips_blank_lines_and_handles_crlf() {
        let data = "Time,x,label\r\n2016-02-27 00:00:00,1.5,ok\r\n\r\n";
        let back = read_csv(&mut Cursor::new(data.as_bytes()), &schema()).unwrap();
        assert_eq!(back.len(), 1);
        assert_eq!(back[0].get(2).unwrap().as_str().unwrap(), "ok");
    }

    /// What `write_csv` quotes reads back whole: separators, quotes,
    /// and line breaks inside a field, a trailing `\r` included.
    #[test]
    fn quoted_fields_round_trip() {
        let labels = [
            "a,b",
            "say \"hi\"",
            "line\nbreak",
            "crlf\r\ninside",
            "cr\r",
            "\"\n,\r",
            "plain",
        ];
        let tuples: Vec<Tuple> = labels
            .iter()
            .enumerate()
            .map(|(i, &label)| {
                Tuple::new(vec![
                    Value::Timestamp(Timestamp(i as i64 * 1000)),
                    Value::Float(i as f64),
                    Value::from(label),
                ])
            })
            .collect();
        let mut buf = Vec::new();
        write_csv(&mut buf, &schema(), &tuples).unwrap();
        let back = read_csv(&mut Cursor::new(buf), &schema()).unwrap();
        assert_eq!(back, tuples);
    }

    #[test]
    fn empty_file_errors() {
        assert!(read_csv(&mut Cursor::new(&b""[..]), &schema()).is_err());
    }
}
