//! Streaming CSV I/O: lazy [`Source`]/[`Sink`] adapters so a pollution
//! job can read and persist streams without materializing them first —
//! the input/output edges of the paper's Fig. 2 pipeline.

use crate::csv;
use icewafl_stream::{Sink, Source};
use icewafl_types::{Result, Schema, Tuple, Value};
use std::io::{BufRead, Write};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Lazily parses tuples from CSV. The header is validated at
/// construction; malformed data rows are counted and skipped (dirty
/// inputs are this library's business, after all) — check
/// [`CsvTupleSource::bad_rows_handle`] after the run.
pub struct CsvTupleSource<R> {
    reader: R,
    schema: Schema,
    line: String,
    bad_rows: Arc<AtomicUsize>,
}

impl<R: BufRead + Send> CsvTupleSource<R> {
    /// Opens a source over `reader`, validating the header against the
    /// schema.
    pub fn new(mut reader: R, schema: Schema) -> Result<Self> {
        let mut header = String::new();
        if !csv::read_record(&mut reader, &mut header)? {
            return Err(icewafl_types::Error::parse("", "CSV header"));
        }
        csv::validate_header(&header, &schema)?;
        Ok(CsvTupleSource {
            reader,
            schema,
            line: String::new(),
            bad_rows: Arc::new(AtomicUsize::new(0)),
        })
    }

    /// A shared counter of skipped malformed rows, usable after the
    /// source has been consumed by a pipeline.
    pub fn bad_rows_handle(&self) -> Arc<AtomicUsize> {
        Arc::clone(&self.bad_rows)
    }
}

impl<R: BufRead + Send> Source<Tuple> for CsvTupleSource<R> {
    fn next(&mut self) -> Option<Tuple> {
        loop {
            match csv::read_record(&mut self.reader, &mut self.line) {
                Ok(false) => return None,
                Ok(true) => {}
                // An I/O error is not a dirty row — ending the stream
                // here would silently truncate it. Poison the pipeline
                // instead: the panic is caught by the stage harness and
                // surfaced as a typed `Error::Pipeline` naming the
                // source.
                Err(e) => panic!("CSV source I/O error: {e}"),
            }
            if self.line.is_empty() {
                continue;
            }
            match csv::parse_record(&self.line, &self.schema) {
                Ok(tuple) => return Some(tuple),
                Err(_) => {
                    self.bad_rows.fetch_add(1, Ordering::Relaxed);
                    continue;
                }
            }
        }
    }
}

/// Writes tuples as CSV, emitting the header up front.
pub struct CsvTupleSink<W> {
    writer: W,
    schema: Schema,
    line: String,
    wrote_header: bool,
}

impl<W: Write + Send> CsvTupleSink<W> {
    /// Creates a sink; the header is written before the first record.
    pub fn new(writer: W, schema: Schema) -> Self {
        CsvTupleSink {
            writer,
            schema,
            line: String::new(),
            wrote_header: false,
        }
    }

    fn write_header(&mut self) {
        self.line.clear();
        for (i, f) in self.schema.fields().iter().enumerate() {
            if i > 0 {
                self.line.push(',');
            }
            csv::write_field(&mut self.line, &f.name);
        }
        self.line.push('\n');
        if let Err(e) = self.writer.write_all(self.line.as_bytes()) {
            panic!("CSV sink I/O error writing header: {e}");
        }
        self.wrote_header = true;
    }
}

impl<W: Write + Send> Sink<Tuple> for CsvTupleSink<W> {
    fn write(&mut self, record: Tuple) {
        if !self.wrote_header {
            self.write_header();
        }
        self.line.clear();
        for (i, v) in record.values().iter().enumerate() {
            if i > 0 {
                self.line.push(',');
            }
            match v {
                Value::Null => {}
                v => csv::write_field(&mut self.line, &v.to_string()),
            }
        }
        self.line.push('\n');
        // A swallowed write error would truncate the dirty stream with a
        // success exit code; panic instead — the sink stage catches it
        // and fails the run with a typed error.
        if let Err(e) = self.writer.write_all(self.line.as_bytes()) {
            panic!("CSV sink I/O error: {e}");
        }
    }

    fn finish(&mut self) {
        if !self.wrote_header {
            self.write_header();
        }
        if let Err(e) = self.writer.flush() {
            panic!("CSV sink I/O error on flush: {e}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use icewafl_stream::prelude::*;
    use icewafl_types::{DataType, Timestamp};
    use std::io::Cursor;
    use std::sync::Mutex;

    fn schema() -> Schema {
        Schema::from_pairs([("Time", DataType::Timestamp), ("x", DataType::Float)]).unwrap()
    }

    const CSV: &str = "Time,x\n\
        2016-02-27 00:00:00,1.5\n\
        2016-02-27 01:00:00,\n\
        2016-02-27 02:00:00,3.5\n";

    #[test]
    fn source_streams_tuples_lazily() {
        let src = CsvTupleSource::new(Cursor::new(CSV.as_bytes()), schema()).unwrap();
        let out = DataStream::from_source(src, WatermarkStrategy::none())
            .collect()
            .unwrap();
        assert_eq!(out.len(), 3);
        assert_eq!(out[0].get(1).unwrap(), &Value::Float(1.5));
        assert!(out[1].get(1).unwrap().is_null());
    }

    #[test]
    fn source_skips_malformed_rows_and_counts_them() {
        let csv = "Time,x\nnot-a-date,oops\n2016-02-27 00:00:00,2.0\nbad,row,extra\n";
        let src = CsvTupleSource::new(Cursor::new(csv.as_bytes()), schema()).unwrap();
        let bad = src.bad_rows_handle();
        let out = DataStream::from_source(src, WatermarkStrategy::none())
            .collect()
            .unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(bad.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn source_rejects_wrong_header() {
        assert!(CsvTupleSource::new(Cursor::new(&b"a,b\n"[..]), schema()).is_err());
        assert!(CsvTupleSource::new(Cursor::new(&b""[..]), schema()).is_err());
    }

    /// A Write impl sharing its buffer so the test can inspect it after
    /// the sink was consumed by the pipeline.
    #[derive(Clone, Default)]
    struct SharedBuf(Arc<Mutex<Vec<u8>>>);
    impl Write for SharedBuf {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn sink_round_trips_through_a_pipeline() {
        let buf = SharedBuf::default();
        let src = CsvTupleSource::new(Cursor::new(CSV.as_bytes()), schema()).unwrap();
        DataStream::from_source(src, WatermarkStrategy::none())
            .execute_into(CsvTupleSink::new(buf.clone(), schema()))
            .unwrap();
        let written = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
        assert_eq!(written, CSV);
    }

    #[test]
    fn empty_stream_still_writes_header() {
        let buf = SharedBuf::default();
        DataStream::from_vec(Vec::<Tuple>::new())
            .execute_into(CsvTupleSink::new(buf.clone(), schema()))
            .unwrap();
        let written = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
        assert_eq!(written, "Time,x\n");
    }

    #[test]
    fn source_to_sink_with_transformation() {
        let buf = SharedBuf::default();
        let src = CsvTupleSource::new(Cursor::new(CSV.as_bytes()), schema()).unwrap();
        DataStream::from_source(src, WatermarkStrategy::none())
            .map(|mut t: Tuple| {
                if let Some(x) = t.get(1).and_then(Value::as_f64) {
                    t.replace(1, Value::Float(x * 2.0));
                }
                t
            })
            .execute_into(CsvTupleSink::new(buf.clone(), schema()))
            .unwrap();
        let written = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
        assert!(written.contains(",3\n"), "1.5 doubled: {written}");
        assert!(written.contains(",7\n"), "3.5 doubled: {written}");
    }

    /// A writer that fails every write (a full disk, a closed pipe).
    struct FailingWriter;
    impl Write for FailingWriter {
        fn write(&mut self, _: &[u8]) -> std::io::Result<usize> {
            Err(std::io::Error::other("disk full"))
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn sink_io_error_poisons_the_pipeline_with_a_typed_failure() {
        let tuples = vec![Tuple::new(vec![
            Value::Timestamp(Timestamp(0)),
            Value::Float(1.0),
        ])];
        let err = DataStream::from_vec(tuples)
            .execute_into(CsvTupleSink::new(FailingWriter, schema()))
            .unwrap_err();
        assert_eq!(err.stage(), "sink");
        assert!(
            err.error.message.contains("CSV sink I/O error"),
            "typed failure carries the I/O detail: {err}"
        );
    }

    /// A reader that serves some valid CSV, then fails mid-stream.
    struct FailingReader;
    impl std::io::Read for FailingReader {
        fn read(&mut self, _: &mut [u8]) -> std::io::Result<usize> {
            Err(std::io::Error::other("connection reset"))
        }
    }

    #[test]
    fn source_io_error_poisons_the_pipeline_instead_of_truncating() {
        let head = "Time,x\n2016-02-27 00:00:00,1.5\n";
        let reader =
            std::io::BufReader::new(std::io::Read::chain(Cursor::new(head), FailingReader));
        let src = CsvTupleSource::new(reader, schema()).unwrap();
        let err = DataStream::from_source(src, WatermarkStrategy::none())
            .collect()
            .unwrap_err();
        assert!(
            err.error.message.contains("CSV source I/O error"),
            "mid-stream I/O failure is a typed error, not a short read: {err}"
        );
    }

    #[test]
    fn round_trip_with_quoted_strings() {
        let s = Schema::from_pairs([("Time", DataType::Timestamp), ("s", DataType::Str)]).unwrap();
        let tuples = vec![Tuple::new(vec![
            Value::Timestamp(Timestamp(0)),
            Value::Str("a,\"b\"".into()),
        ])];
        let buf = SharedBuf::default();
        DataStream::from_vec(tuples.clone())
            .execute_into(CsvTupleSink::new(buf.clone(), s.clone()))
            .unwrap();
        let written = buf.0.lock().unwrap().clone();
        let src = CsvTupleSource::new(Cursor::new(written), s).unwrap();
        let back = DataStream::from_source(src, WatermarkStrategy::none())
            .collect()
            .unwrap();
        assert_eq!(back, tuples);
    }
}
