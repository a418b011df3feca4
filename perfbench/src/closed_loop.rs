//! The closed-loop load generator.
//!
//! `rlse-serve` callers pipe request lines in and wait for the in-order
//! replies, so the benchmark models `callers` such clients as a closed loop
//! of credits, without threads of its own:
//!
//! * [`CreditReader`] is the server's input. It hands the server the next
//!   request line only while one of the credits is free, stamping the
//!   line's release time, and reports end of input once the deadline or
//!   the line limit is reached.
//! * [`StampWriter`] is the server's output. It stamps each response when
//!   its newline byte arrives (a response may reach it in several `write`
//!   calls), returns the credit and passes the line on.
//!
//! A request's latency runs from its release to its response's newline.

use std::collections::VecDeque;
use std::io::{self, BufRead, Read, Write};
use std::sync::{Condvar, Mutex};
use std::time::Instant;

struct LoopState {
    free: usize,
    released: u64,
    /// Release times of requests whose response newline has not arrived.
    in_flight: VecDeque<Instant>,
    peak_outstanding: usize,
}

/// Credits shared by one reader and one writer.
pub struct ClosedLoop {
    callers: usize,
    deadline: Option<Instant>,
    limit: u64,
    state: Mutex<LoopState>,
    credit_freed: Condvar,
}

impl ClosedLoop {
    /// A loop of `callers` credits that releases at most `limit` lines and
    /// none after `deadline`.
    pub fn new(callers: usize, deadline: Option<Instant>, limit: u64) -> ClosedLoop {
        let callers = callers.max(1);
        ClosedLoop {
            callers,
            deadline,
            limit,
            state: Mutex::new(LoopState {
                free: callers,
                released: 0,
                in_flight: VecDeque::new(),
                peak_outstanding: 0,
            }),
            credit_freed: Condvar::new(),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, LoopState> {
        self.state.lock().expect("closed-loop state poisoned")
    }

    /// Wait for a free credit and take it, unless the run is over.
    fn acquire(&self) -> bool {
        let mut st = self.lock();
        while st.free == 0 {
            st = self
                .credit_freed
                .wait(st)
                .expect("closed-loop state poisoned");
        }
        if st.released >= self.limit || self.deadline.is_some_and(|d| Instant::now() >= d) {
            return false;
        }
        st.free -= 1;
        st.released += 1;
        st.in_flight.push_back(Instant::now());
        st.peak_outstanding = st.peak_outstanding.max(self.callers - st.free);
        true
    }

    /// Return the oldest request's credit; its release time.
    fn complete(&self) -> Option<Instant> {
        let mut st = self.lock();
        let released = st.in_flight.pop_front()?;
        st.free += 1;
        drop(st);
        self.credit_freed.notify_one();
        Some(released)
    }

    /// Lines released so far.
    pub fn released(&self) -> u64 {
        self.lock().released
    }

    /// The most requests that were ever outstanding at once.
    pub fn peak_outstanding(&self) -> usize {
        self.lock().peak_outstanding
    }

    /// Requests released whose response has not arrived.
    #[cfg(test)]
    pub fn outstanding(&self) -> usize {
        self.lock().in_flight.len()
    }
}

/// The server's input: line `i` comes from `next_line(i)`, released under
/// the loop's credits.
pub struct CreditReader<'a, F: FnMut(u64) -> String> {
    lp: &'a ClosedLoop,
    next_line: F,
    index: u64,
    /// The next line, prepared while the previous request is in flight.
    prepared: Option<Vec<u8>>,
    buf: Vec<u8>,
    pos: usize,
}

impl<'a, F: FnMut(u64) -> String> CreditReader<'a, F> {
    /// A reader feeding `next_line(0)`, `next_line(1)`, … through `lp`.
    pub fn new(lp: &'a ClosedLoop, next_line: F) -> Self {
        CreditReader {
            lp,
            next_line,
            index: 0,
            prepared: None,
            buf: Vec::new(),
            pos: 0,
        }
    }
}

impl<F: FnMut(u64) -> String> Read for CreditReader<'_, F> {
    fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
        let avail = self.fill_buf()?;
        let n = avail.len().min(out.len());
        out[..n].copy_from_slice(&avail[..n]);
        self.consume(n);
        Ok(n)
    }
}

impl<F: FnMut(u64) -> String> BufRead for CreditReader<'_, F> {
    fn fill_buf(&mut self) -> io::Result<&[u8]> {
        if self.pos == self.buf.len() {
            let line = match self.prepared.take() {
                Some(line) => line,
                None => {
                    let mut line = (self.next_line)(self.index).into_bytes();
                    line.push(b'\n');
                    line
                }
            };
            if !self.lp.acquire() {
                return Ok(&[]);
            }
            self.buf = line;
            self.pos = 0;
            self.index += 1;
        }
        Ok(&self.buf[self.pos..])
    }

    fn consume(&mut self, amt: usize) {
        self.pos = (self.pos + amt).min(self.buf.len());
        if self.pos == self.buf.len() && self.prepared.is_none() {
            // Render the next line now, while the server works, so that
            // building it never delays its release.
            let mut line = (self.next_line)(self.index).into_bytes();
            line.push(b'\n');
            self.prepared = Some(line);
        }
    }
}

/// The server's output: calls `on_response(line, released, done)` for
/// every complete response line (without its newline), where `done` is
/// the moment its newline arrived.
pub struct StampWriter<'a, F: FnMut(&[u8], Instant, Instant)> {
    lp: &'a ClosedLoop,
    on_response: F,
    partial: Vec<u8>,
}

impl<'a, F: FnMut(&[u8], Instant, Instant)> StampWriter<'a, F> {
    /// A writer returning `lp`'s credits.
    pub fn new(lp: &'a ClosedLoop, on_response: F) -> Self {
        StampWriter {
            lp,
            on_response,
            partial: Vec::new(),
        }
    }
}

impl<F: FnMut(&[u8], Instant, Instant)> Write for StampWriter<'_, F> {
    fn write(&mut self, mut buf: &[u8]) -> io::Result<usize> {
        let len = buf.len();
        while let Some(nl) = buf.iter().position(|&b| b == b'\n') {
            let done = Instant::now();
            let released = self.lp.complete().ok_or_else(|| {
                io::Error::new(io::ErrorKind::InvalidData, "response without a request")
            })?;
            self.partial.extend_from_slice(&buf[..nl]);
            (self.on_response)(&self.partial, released, done);
            self.partial.clear();
            buf = &buf[nl + 1..];
        }
        self.partial.extend_from_slice(buf);
        Ok(len)
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rlse_serve::{ServeOptions, Server};

    #[test]
    fn never_more_than_callers_outstanding() {
        let server = Server::new(ServeOptions {
            workers: 4,
            ..Default::default()
        });
        for callers in [1, 2, 3] {
            let lp = ClosedLoop::new(callers, None, 200);
            let mut answered = 0u64;
            let reader =
                CreditReader::new(&lp, |i| format!("{{\"id\":\"p{i}\",\"kind\":\"ping\"}}"));
            let writer = StampWriter::new(&lp, |line: &[u8], _, _| {
                assert!(line.starts_with(format!("{{\"id\":\"p{answered}\"").as_bytes()));
                answered += 1;
                // Counted independently of the loop's own bookkeeping.
                assert!(lp.released() - answered <= callers as u64, "{callers}");
            });
            server.serve_reader(reader, writer).unwrap();
            assert_eq!(lp.released(), 200);
            assert!(lp.peak_outstanding() <= callers, "{callers}");
            assert_eq!(lp.outstanding(), 0);
        }
    }

    #[test]
    fn latency_is_stamped_at_the_newline_of_a_split_response() {
        let lp = ClosedLoop::new(1, None, 1);
        let mut reader = CreditReader::new(&lp, |_| "{}".to_string());
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        assert_eq!(line, "{}\n");
        let after_release = Instant::now();
        let mut got = Vec::new();
        let mut writer = StampWriter::new(&lp, |l: &[u8], released, done| {
            got.push((l.to_vec(), released, done))
        });
        writer.write_all(b"{\"id\":").unwrap();
        writer.write_all(b"\"x\"}").unwrap();
        assert_eq!(lp.outstanding(), 1, "no credit back before the newline");
        let before_newline = Instant::now();
        writer.write_all(b"\n").unwrap();
        drop(writer);
        assert_eq!(lp.outstanding(), 0);
        assert_eq!(got.len(), 1);
        let (line, released, done) = &got[0];
        assert_eq!(line, b"{\"id\":\"x\"}");
        assert!(*released <= after_release);
        assert!(
            *done >= before_newline,
            "stamped at the newline, not the first write"
        );
        let mut rest = String::new();
        assert_eq!(reader.read_line(&mut rest).unwrap(), 0, "limit reached");
    }

    #[test]
    fn several_responses_in_one_write_each_return_a_credit() {
        let lp = ClosedLoop::new(2, None, 2);
        let mut reader = CreditReader::new(&lp, |i| format!("r{i}"));
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        reader.read_line(&mut line).unwrap();
        assert_eq!(lp.outstanding(), 2);
        let mut lines = Vec::new();
        let mut writer = StampWriter::new(&lp, |l: &[u8], _, _| lines.push(l.to_vec()));
        writer.write_all(b"a\nb\n").unwrap();
        drop(writer);
        assert_eq!(lines, vec![b"a".to_vec(), b"b".to_vec()]);
        assert_eq!(lp.outstanding(), 0);
    }
}
