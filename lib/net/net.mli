(** The one socket layer under [ogc serve], [ogc router], [ogc loadgen]
    and [ogc submit]: addresses, a timed client connect with one line
    round trip, and an NDJSON listener with a graceful drain.

    Every request and every response is one line.  The listener bounds a
    request line at {!max_line_bytes}; longer lines get a structured
    error and the connection closes. *)

(** {1 Addresses} *)

type addr =
  | Unix_sock of string  (** path of a Unix-domain socket *)
  | Tcp of string * int  (** host (a name or a numeric address), port *)

val parse_addr : string -> addr
(** The ADDR grammar of every command: a string containing ['/'] is a
    Unix socket path; otherwise [HOST:PORT] when the text after the last
    [':'] is a port number (an empty HOST means [127.0.0.1]); anything
    else is a Unix socket path too. *)

val addr_string : addr -> string
(** The socket path, or [host:port]. *)

val ignore_sigpipe : unit -> unit
(** Ignore SIGPIPE process-wide (no-op where the signal does not exist),
    so a peer that hangs up mid-write surfaces as [EPIPE] on the
    offending call instead of killing the process.  {!run} calls it;
    long-lived clients (loadgen) call it too. *)

(** {1 Client side} *)

type conn = { fd : Unix.file_descr; ic : in_channel; oc : out_channel }

val connect : ?timeout_ms:int -> addr -> conn
(** Resolve (a numeric host as is, a name through [gethostbyname]) and
    connect, giving up after [timeout_ms] (default 1000) with
    [Unix_error (ETIMEDOUT, _, _)], so a dead TCP peer costs the timeout
    and not the kernel's SYN retries.  Raises [Unix.Unix_error] when the
    peer refuses, [Failure "cannot resolve HOST"] when the name does not
    resolve. *)

val call : conn -> string -> string
(** Write [line] and a newline, flush, and read one response line.
    Raises [End_of_file] when the peer closed, [Sys_error] on I/O
    errors. *)

val close : conn -> unit
(** Close the descriptor, ignoring errors. *)

val backoff : Random.State.t -> int -> float
(** Seconds to wait before retry [attempt] (0-based): 50 ms doubled per
    attempt, jittered to 0.5–1.5x so synchronized clients do not retry
    in lockstep, capped at 2 s. *)

(** {1 Listener} *)

val max_line_bytes : int
(** 16 MiB: the longest request line the listener accepts, newline
    excluded.  The largest line the tools themselves send is about
    132 KB (a VRS answer carrying its program, re-sent by the router as
    a replica [put]). *)

type listener

val listen : name:string -> addr -> listener
(** Bind and listen.  A stale Unix socket file is unlinked first; TCP
    sets [SO_REUSEADDR].  [name] prefixes the listener's log messages
    (["NAME: connection dropped"]).  Raises [Unix.Unix_error] when the
    address is unavailable. *)

val run : listener -> on_drain:(unit -> unit) -> (string -> string) -> unit
(** Accept until {!stop}.  Each connection gets a systhread that reads
    request lines, answers each with [handle] (applied to the trimmed
    line; empty lines are skipped) and writes the reply line, in order.
    A failed reply write is logged at warn as ["NAME: connection
    dropped"].  A line longer than {!max_line_bytes} gets one
    [{"status":"error",...}] reply naming the limit, a warn line, and
    the connection closes.  When [accept] runs out of descriptors
    ([EMFILE]/[ENFILE]) the loop pauses 100 ms and tries again.  The
    first failure of such an episode is logged at warn as ["NAME:
    accept failed"]; the rest are only counted, and when an accept
    succeeds again, or the listener stops, one ["NAME: accept
    recovered"] warn line carries the episode's count of failed
    accepts ([failures]).

    Once stopped: [on_drain ()], then close the listener and unlink its
    socket file, shut down the receive side of every live connection (a
    request in flight still writes its reply; the next read sees EOF),
    and wait until every connection has closed.  Returns after that.
    Only live connections are tracked, so nothing grows with the number
    of connections served.  Call at most once. *)

val stop : listener -> unit
(** Request shutdown: set a flag and wake the accept loop with a
    throwaway connection.  Takes no lock, so a signal handler may call
    it.  Idempotent. *)
