//! Frame reading for tests that speak the wire protocol over a raw
//! socket.

use cobra_serve::protocol::{Frame, FrameBuf};
use std::io;
use std::net::TcpStream;

/// The next frame off `stream`, read through `inbox`. Keep one inbox per
/// socket: a read may take the start of the next frame too. `Ok(None)`
/// is a clean end of stream; a socket read timeout is its `Err`, with
/// what arrived so far left in the inbox.
pub fn next_frame(stream: &mut TcpStream, inbox: &mut FrameBuf) -> io::Result<Option<Frame>> {
    loop {
        if let Some(frame) = inbox.next_frame().expect("a well-formed frame") {
            return Ok(Some(frame));
        }
        if inbox.read_from(stream)? == 0 {
            assert!(!inbox.has_partial(), "end of stream inside a frame");
            return Ok(None);
        }
    }
}

/// The next frame off `stream`, which must deliver one.
pub fn read_one_frame(stream: &mut TcpStream, inbox: &mut FrameBuf) -> Frame {
    match next_frame(stream, inbox) {
        Ok(Some(frame)) => frame,
        other => panic!("expected one frame, got {other:?}"),
    }
}
