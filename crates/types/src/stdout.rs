//! Standard output for command-line reports that a reader may stop
//! reading, as in `zr-trace diff a.zrt b.zrt | head`.

use std::io::{self, Write};
use std::process::ExitCode;

/// Standard output, locked once, that tolerates a reader going away: once
/// the pipe is closed, the rest of the report is discarded instead of
/// panicking (`println!`) or failing the command, so the command keeps
/// its own exit status. Report loops check [`Stdout::is_closed`] to stop
/// early.
#[derive(Debug)]
pub struct Stdout {
    lock: io::StdoutLock<'static>,
    closed: bool,
}

impl Stdout {
    /// Locks the process's standard output.
    pub fn new() -> Self {
        Stdout {
            lock: io::stdout().lock(),
            closed: false,
        }
    }

    /// Whether the reader has gone away.
    pub fn is_closed(&self) -> bool {
        self.closed
    }

    /// Ends a command: flushes, then returns its exit `status`. A reader
    /// that went away is not an error; any other failed write is reported
    /// on stderr as `<command>: cannot write to stdout: ...` and exits 1.
    pub fn finish(&mut self, command: &str, status: io::Result<ExitCode>) -> ExitCode {
        match status.and_then(|code| self.flush().map(|()| code)) {
            Ok(code) => code,
            Err(e) => {
                eprintln!("{command}: cannot write to stdout: {e}");
                ExitCode::FAILURE
            }
        }
    }
}

impl Default for Stdout {
    fn default() -> Self {
        Stdout::new()
    }
}

impl Write for Stdout {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        if !self.closed {
            match self.lock.write(buf) {
                Err(e) if e.kind() == io::ErrorKind::BrokenPipe => self.closed = true,
                r => return r,
            }
        }
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        if !self.closed {
            match self.lock.flush() {
                Err(e) if e.kind() == io::ErrorKind::BrokenPipe => self.closed = true,
                r => return r,
            }
        }
        Ok(())
    }
}
