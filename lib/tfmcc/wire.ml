type echo = { rx_id : int; rx_ts : float; echo_delay : float }

type fb_echo = { fb_rx_id : int; fb_rate : float; fb_has_loss : bool }

type data = {
  session : int;
  seq : int;
  ts : float;
  rate : float;
  round : int;
  round_duration : float;
  max_rtt : float;
  clr : int;
  in_slowstart : bool;
  echo : echo option;
  fb : fb_echo option;
  app : int;
}

type report = {
  session : int;
  rx_id : int;
  ts : float;
  echo_ts : float;
  echo_delay : float;
  rate : float;
  have_rtt : bool;
  rtt : float;
  p : float;
  x_recv : float;
  round : int;
  has_loss : bool;
  leaving : bool;
}

type msg = Data of data | Report of report

let report_size = 40

(* ------------------------------------------------------------ validation *)

(* A corrupted report must never poison sender state: every float field
   the sender feeds into its rate machinery has to be finite and inside
   its physical range.  Round plausibility (stale/future) is checked by
   the sender against its own round counter. *)
let report_fields_valid ~rx_id ~ts ~echo_ts ~echo_delay ~rate ~rtt ~p ~x_recv
    ~round =
  rx_id >= 0
  && Float.is_finite ts
  && Float.is_finite echo_ts
  && Float.is_finite echo_delay
  && echo_delay >= 0.
  && Float.is_finite rate
  && rate >= 0.
  && Float.is_finite rtt
  && rtt > 0.
  && (not (Float.is_nan p))
  && p >= 0.
  && p <= 1.
  && Float.is_finite x_recv
  && x_recv >= 0.
  && round >= -1

let report_valid (r : report) =
  report_fields_valid ~rx_id:r.rx_id ~ts:r.ts ~echo_ts:r.echo_ts
    ~echo_delay:r.echo_delay ~rate:r.rate ~rtt:r.rtt ~p:r.p ~x_recv:r.x_recv
    ~round:r.round

let data_fields_valid ~seq ~ts ~rate ~round ~round_duration ~max_rtt ~clr
    ~echo ~fb =
  seq >= 0
  && Float.is_finite ts
  && Float.is_finite rate
  && rate > 0.
  && round >= 0
  && Float.is_finite round_duration
  && round_duration > 0.
  && Float.is_finite max_rtt
  && max_rtt > 0.
  && clr >= -1
  && (match echo with
     | None -> true
     | Some (e : echo) ->
         e.rx_id >= 0 && Float.is_finite e.rx_ts
         && Float.is_finite e.echo_delay
         && e.echo_delay >= 0.)
  && (match fb with
     | None -> true
     | Some f -> f.fb_rx_id >= 0 && Float.is_finite f.fb_rate && f.fb_rate >= 0.)

let data_valid (d : data) =
  data_fields_valid ~seq:d.seq ~ts:d.ts ~rate:d.rate ~round:d.round
    ~round_duration:d.round_duration ~max_rtt:d.max_rtt ~clr:d.clr ~echo:d.echo
    ~fb:d.fb

(* What a decode of [m]'s own encoding accepts: the decoders' session
   check plus the same validators, read off the record itself. *)
let frame_valid = function
  | Report r -> r.session >= 0 && report_valid r
  | Data d -> d.session >= 0 && data_valid d

(* ----------------------------------------------------------- byte codec *)

(* Field access at a byte offset, little-endian.  These are top-level
   functions of the buffer, not closures over it: a local closure
   capturing [b] is allocated on every encode or decode call.  With
   them inlined, a float goes from the bytes to its record box (or from
   its record box to the bytes) without an intermediate box. *)
let[@inline] get_int b off = Int64.to_int (Bytes.get_int64_le b off)

let[@inline] get_float b off = Int64.float_of_bits (Bytes.get_int64_le b off)

let[@inline] set_int b off v = Bytes.set_int64_le b off (Int64.of_int v)

let[@inline] set_float b off v = Bytes.set_int64_le b off (Int64.bits_of_float v)

(* Serialized receiver report: magic, flags, three 64-bit ints, seven
   IEEE-754 doubles, all little-endian.  Decoding re-runs
   [report_valid] so no byte string — random, truncated, or
   bit-flipped — can ever produce a payload the sender would reject. *)

let encoded_report_size = 82

let report_magic = 0x52 (* 'R' *)

let report_flag_mask = 0x07 (* have_rtt | has_loss | leaving *)

(* Encoding is the sender's last chance to catch a non-finite float
   before it reaches the network: a NaN/inf smuggled through the encoder
   would round-trip bit-exactly and only surface as a decode rejection
   at every receiver.  Fail loudly at the source instead.  Callers pass
   every argument: a partial application would allocate per call. *)
let require_finite ctx name v =
  if not (Float.is_finite v) then
    invalid_arg
      (Printf.sprintf "Wire.%s: non-finite %s (%h)" ctx name v)

let encode_report_into b (r : report) =
  if Bytes.length b < encoded_report_size then
    invalid_arg "Wire.encode_report_into: buffer too small";
  require_finite "encode_report" "ts" r.ts;
  require_finite "encode_report" "echo_ts" r.echo_ts;
  require_finite "encode_report" "echo_delay" r.echo_delay;
  require_finite "encode_report" "rate" r.rate;
  require_finite "encode_report" "rtt" r.rtt;
  require_finite "encode_report" "p" r.p;
  require_finite "encode_report" "x_recv" r.x_recv;
  Bytes.set_uint8 b 0 report_magic;
  let flags =
    (if r.have_rtt then 1 else 0)
    lor (if r.has_loss then 2 else 0)
    lor if r.leaving then 4 else 0
  in
  Bytes.set_uint8 b 1 flags;
  set_int b 2 r.session;
  set_int b 10 r.rx_id;
  set_int b 18 r.round;
  set_float b 26 r.ts;
  set_float b 34 r.echo_ts;
  set_float b 42 r.echo_delay;
  set_float b 50 r.rate;
  set_float b 58 r.rtt;
  set_float b 66 r.p;
  set_float b 74 r.x_recv;
  encoded_report_size

let encode_report (r : report) =
  let b = Bytes.create encoded_report_size in
  let (_ : int) = encode_report_into b r in
  b

(* The decoders read the first [len] bytes of [b] as the frame.  Each
   float is read straight into the record, which is then validated:
   binding it to a local first and passing it to a labelled validator
   as well as the record would box it twice. *)
let decode_report_len b len =
  if len <> encoded_report_size then Error "report: bad length"
  else if Bytes.get_uint8 b 0 <> report_magic then Error "report: bad magic"
  else
    let flags = Bytes.get_uint8 b 1 in
    if flags land lnot report_flag_mask <> 0 then Error "report: unknown flags"
    else
      let r =
        {
          session = get_int b 2;
          rx_id = get_int b 10;
          ts = get_float b 26;
          echo_ts = get_float b 34;
          echo_delay = get_float b 42;
          rate = get_float b 50;
          have_rtt = flags land 1 <> 0;
          rtt = get_float b 58;
          p = get_float b 66;
          x_recv = get_float b 74;
          round = get_int b 18;
          has_loss = flags land 2 <> 0;
          leaving = flags land 4 <> 0;
        }
      in
      if r.session < 0 then Error "report: negative session"
      else if not (report_valid r) then Error "report: invalid fields"
      else Ok (Report r)

let decode_report b = decode_report_len b (Bytes.length b)

(* Serialized data-packet header.  Fixed layout: absent echo/fb sections
   are encoded as zeroes and masked out by the presence flags.  Real
   transports pad the frame out to the configured packet size; decoding
   reads only the header prefix, so any frame ≥ the header size with a
   valid prefix is accepted. *)

let encoded_data_size = 114

let data_magic = 0x44 (* 'D' *)

let data_flag_mask = 0x0f (* in_slowstart | echo? | fb? | fb_has_loss *)

let encode_data_into b (d : data) =
  if Bytes.length b < encoded_data_size then
    invalid_arg "Wire.encode_data_into: buffer too small";
  require_finite "encode_data" "ts" d.ts;
  require_finite "encode_data" "rate" d.rate;
  require_finite "encode_data" "round_duration" d.round_duration;
  require_finite "encode_data" "max_rtt" d.max_rtt;
  (match d.echo with
  | Some e ->
      require_finite "encode_data" "echo.rx_ts" e.rx_ts;
      require_finite "encode_data" "echo.echo_delay" e.echo_delay
  | None -> ());
  (match d.fb with
  | Some f -> require_finite "encode_data" "fb.fb_rate" f.fb_rate
  | None -> ());
  (* Absent echo/fb sections must read as zeroes whatever the buffer
     held before (scratch buffers are reused across frames). *)
  Bytes.fill b 0 encoded_data_size '\000';
  Bytes.set_uint8 b 0 data_magic;
  let flags =
    (if d.in_slowstart then 1 else 0)
    lor (match d.echo with Some _ -> 2 | None -> 0)
    lor (match d.fb with Some _ -> 4 | None -> 0)
    lor match d.fb with Some f when f.fb_has_loss -> 8 | _ -> 0
  in
  Bytes.set_uint8 b 1 flags;
  set_int b 2 d.session;
  set_int b 10 d.seq;
  set_int b 18 d.round;
  set_int b 26 d.clr;
  set_int b 34 d.app;
  set_float b 42 d.ts;
  set_float b 50 d.rate;
  set_float b 58 d.round_duration;
  set_float b 66 d.max_rtt;
  (match d.echo with
  | Some e ->
      set_int b 74 e.rx_id;
      set_float b 82 e.rx_ts;
      set_float b 90 e.echo_delay
  | None -> ());
  (match d.fb with
  | Some fb ->
      set_int b 98 fb.fb_rx_id;
      set_float b 106 fb.fb_rate
  | None -> ());
  encoded_data_size

let encode_data (d : data) =
  let b = Bytes.create encoded_data_size in
  let (_ : int) = encode_data_into b d in
  b

let decode_data_len b len =
  if len < encoded_data_size then Error "data: bad length"
  else if Bytes.get_uint8 b 0 <> data_magic then Error "data: bad magic"
  else
    let flags = Bytes.get_uint8 b 1 in
    if flags land lnot data_flag_mask <> 0 then Error "data: unknown flags"
    else if flags land 8 <> 0 && flags land 4 = 0 then
      Error "data: fb_has_loss without fb"
    else
      let d =
        {
          session = get_int b 2;
          seq = get_int b 10;
          ts = get_float b 42;
          rate = get_float b 50;
          round = get_int b 18;
          round_duration = get_float b 58;
          max_rtt = get_float b 66;
          clr = get_int b 26;
          in_slowstart = flags land 1 <> 0;
          echo =
            (if flags land 2 <> 0 then
               Some
                 { rx_id = get_int b 74; rx_ts = get_float b 82; echo_delay = get_float b 90 }
             else None);
          fb =
            (if flags land 4 <> 0 then
               Some
                 {
                   fb_rx_id = get_int b 98;
                   fb_rate = get_float b 106;
                   fb_has_loss = flags land 8 <> 0;
                 }
             else None);
          app = get_int b 34;
        }
      in
      if d.session < 0 then Error "data: negative session"
      else if not (data_valid d) then Error "data: invalid fields"
      else Ok (Data d)

let decode_data b = decode_data_len b (Bytes.length b)

let decode ?len b =
  let len =
    match len with
    | None -> Bytes.length b
    | Some n ->
        if n < 0 || n > Bytes.length b then invalid_arg "Wire.decode: len out of bounds";
        n
  in
  if len < 1 then Error "frame: empty"
  else
    match Bytes.get_uint8 b 0 with
    | m when m = report_magic -> decode_report_len b len
    | m when m = data_magic -> decode_data_len b len
    | _ -> Error "frame: bad magic"

(* ------------------------------------------------------------ corruption *)

(* Mangle one field of a TFMCC message into a hostile value (NaN,
   negative, out-of-range, nonsense round, foreign session).
   Deliberately produces exactly the malformed inputs the validators
   above reject, so chaos runs exercise every guard. *)
let corrupt_msg rng msg =
  let pick n = Stats.Rng.int rng n in
  match msg with
  | Report r -> (
      match pick 9 with
      | 0 -> Report { r with rate = Float.nan }
      | 1 -> Report { r with rate = -1e12 }
      | 2 -> Report { r with rtt = -0.5 }
      | 3 -> Report { r with rtt = Float.nan }
      | 4 -> Report { r with p = 7.5 }
      | 5 -> Report { r with x_recv = Float.neg_infinity }
      | 6 -> Report { r with round = -1000 }
      | 7 -> Report { r with session = r.session + 977 }
      | _ -> Report { r with echo_delay = Float.nan; ts = Float.infinity })
  | Data d -> (
      match pick 7 with
      | 0 -> Data { d with rate = Float.nan }
      | 1 -> Data { d with rate = -4096. }
      | 2 -> Data { d with round_duration = -1. }
      | 3 -> Data { d with max_rtt = Float.nan }
      | 4 -> Data { d with round = -5 }
      | 5 -> Data { d with session = d.session + 977 }
      | _ -> Data { d with ts = Float.nan; clr = -42 })
