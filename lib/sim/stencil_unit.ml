open Sf_ir
module Tensor = Sf_reference.Tensor
module Compile = Sf_reference.Compile
module Ib = Sf_analysis.Internal_buffer

type input_binding = {
  field : string;
  channel : Channel.t option;
  prefetched : Tensor.t option;
}

(* Ring buffer over the flattened element stream of one full-rank input:
   the shift register of Fig. 6. [cap] is the window the internal-buffer
   analysis sized, and every read is checked against it; the physical
   ring is longer (see [create]) so that words evaluated a few steps
   late still find their elements. [newest] is the flat element index of
   the most recently received element (-1 before any data arrives) and
   [head] its slot in [data]; [recorded] holds the [newest] each word of
   the block being evaluated recorded at its step. *)
type window = {
  data : float array;
  cap : int;
  mutable newest : int;
  mutable head : int;
  recorded : int array;
}

(* [axes] are the iteration-space axes the input spans and [strides]
   its storage strides along them: the element stream's for a window,
   the tensor's own row-major ones when prefetched. *)
type input_state = {
  field : string;
  channel : Channel.t option;
  window : window option;
  prefetched : Tensor.t option;
  axes : int array;
  strides : int array;
  start_step : int;
  boundary : Boundary.t;
}

(* One distinct access of the body: its input, the offset along each of
   the input's axes, and the copy from the input's window or tensor. *)
type tap = { input : int; offs : int array; copy : Compile.copy }

type t = {
  name : string;
  shape : int array;
  strides : int array;
  w : int;
  n_words : int;
  init_max : int;
  compute_cycles : int;
  inputs : input_state array;
  outputs : Channel.t array;
  body : Compile.t;
  taps : tap array;
  (* The block of pending words being evaluated, from the head, all on
     the head's row: its first cell's multi-index, and per cell whether
     an access left the domain. *)
  block_words : int;
  block_idx : int array;
  block_oob : bool array;
  block_out : float array;
  shrink : bool;
  mutable step : int;
  (* The delay line of computed-but-not-yet-emitted words, as a
     structure-of-arrays ring: release cycle per slot, plus the lane
     values and validity flattened at [slot * w]. Occupancy never
     exceeds compute_cycles + 1 (the pipeline depth guard in try_step),
     so compute_cycles + 2 slots suffice. Words are issued and emitted
     in order, so the head is word [step - init_max - pend_count]. A
     step only records every window's [newest] ([pend_newest] at
     [slot * inputs + input]); the values are evaluated in blocks when
     the head is due, and the first [pend_ready] entries hold them. *)
  pend_release : int array;
  pend_newest : int array;
  pend_values : float array;
  pend_valid : bool array;
  pend_cap : int;
  mutable pend_head : int;
  mutable pend_count : int;
  mutable pend_ready : int;
  mutable stalls : int;
  (* Fault-injection flag (Fault_plan): a hiccup freezes the pipeline
     for the cycle. Cleared by the injector each cycle. *)
  mutable hiccup : bool;
  probe : Telemetry.probe option;
}

let window_append win v =
  win.newest <- win.newest + 1;
  win.head <- (if win.head + 1 = Array.length win.data then 0 else win.head + 1);
  win.data.(win.head) <- v

(* Pending words are evaluated in blocks of up to this many cells. *)
let block_cells = 64

(* Check the reads of block cells [a, b) from ring elements [e + a,
   e + b) against the [newest] each word recorded at its own step: every
   read must have arrived by then, still lie inside the analysed window
   and not precede the stream. The [newest] of consecutive words differ
   by 0 or W (asserted in [evaluate_pending]) while the reads of whole
   words advance by exactly W, so among whole words the first binds the
   oldest read and the last the newest (clamped into the run when it
   has no whole word). The partial words at either end are checked with
   their own reads. This is exactly the check of every read, on at most
   four words. *)
let check_word ~w win e a b q =
  let newest = win.recorded.(q) in
  let first = e + max a (q * w) and last = e + min b ((q + 1) * w) - 1 in
  assert (last <= newest && first > newest - win.cap && first >= 0)

let check_run ~w win e a b =
  let first = a / w and last = (b - 1) / w in
  check_word ~w win e a b first;
  check_word ~w win e a b last;
  check_word ~w win e a b (min last ((a + w - 1) / w));
  check_word ~w win e a b (max first ((b / w) - 1))

(* Copy ring elements [from + a, from + b), checked, in at most two blits
   across the wrap. A window spans the innermost axis: [step] is 1. *)
let copy_window ~w win ~step:_ ~from dst pos a b =
  check_run ~w win from a b;
  let size = Array.length win.data and len = b - a in
  let slot = win.head - (win.newest - (from + a)) in
  let slot = if slot < 0 then slot + size else slot in
  let first = min len (size - slot) in
  Array.blit win.data slot dst (pos + a) first;
  if first < len then Array.blit win.data 0 dst (pos + a + first) (len - first)

let create ?probe ~program ~stencil ~compute_cycles ~inputs ~outputs () =
  let shape = Array.of_list program.Program.shape in
  let strides = Array.of_list (Program.strides program) in
  let rank = Array.length shape in
  let w = program.Program.vector_width in
  let n_words = Program.cells program / w in
  let buffers = Ib.of_stencil program stencil in
  let longest = List.fold_left (fun m (ib : Ib.t) -> max m ib.init_elements) 0 buffers in
  let init_max = Sf_support.Util.ceil_div longest (max 1 w) in
  let block_words = max 1 (block_cells / w) in
  let input_state (b : input_binding) =
    let axes = Array.of_list (Program.field_axes program b.field) in
    let window, start_step, strides =
      if Array.length axes <> rank then begin
        let m = Array.length axes in
        let own = Array.make m 1 in
        for d = m - 2 downto 0 do
          own.(d) <- own.(d + 1) * shape.(axes.(d + 1))
        done;
        (None, 0, own)
      end
      else begin
        let info = List.find (fun (ib : Ib.t) -> String.equal ib.field b.field) buffers in
        let init_extra = Sf_support.Util.ceil_div info.init_elements (max 1 w) in
        let cap = ((init_extra + 2) * w) + max 0 (-info.min_flat) + w in
        (* A word is evaluated at the latest when it is emitted, at most
           compute_cycles + 1 steps after it was recorded; that many
           more words of ring keep its elements resident. *)
        let size = cap + ((compute_cycles + 2) * w) in
        let recorded = Array.make block_words 0 in
        let window = { data = Array.make size 0.; cap; newest = -1; head = size - 1; recorded } in
        (Some window, init_max - init_extra, strides)
      end
    in
    {
      field = b.field;
      channel = b.channel;
      window;
      prefetched = b.prefetched;
      axes;
      strides;
      start_step;
      boundary = Stencil.boundary_for stencil b.field;
    }
  in
  let inputs = Array.of_list (List.map input_state inputs) in
  let n = block_words * w in
  let body = Compile.compile ~cells:n stencil.Stencil.body in
  let tap (field, offsets) =
    match Array.find_index (fun (i : input_state) -> String.equal i.field field) inputs with
    | None -> failwith (Printf.sprintf "stencil %s: unbound access to %s" stencil.Stencil.name field)
    | Some input ->
        let copy =
          match inputs.(input).window with
          | Some win -> copy_window ~w win
          | None -> Compile.copy_tensor (Option.get inputs.(input).prefetched).Tensor.data
        in
        { input; offs = Array.of_list offsets; copy }
  in
  let pend_cap = compute_cycles + 2 in
  {
    name = stencil.Stencil.name;
    shape;
    strides;
    w;
    n_words;
    init_max;
    compute_cycles;
    inputs;
    outputs = Array.of_list outputs;
    body;
    taps = Array.map tap (Compile.accesses body);
    block_words;
    block_idx = Array.make rank 0;
    block_oob = Array.make n false;
    block_out = Array.make n 0.;
    shrink = stencil.Stencil.shrink;
    step = 0;
    pend_release = Array.make pend_cap 0;
    pend_newest = Array.make (pend_cap * Array.length inputs) 0;
    pend_values = Array.make (pend_cap * w) 0.;
    pend_valid = Array.make (pend_cap * w) true;
    pend_cap;
    pend_head = 0;
    pend_count = 0;
    pend_ready = 0;
    stalls = 0;
    hiccup = false;
    probe;
  }

let name t = t.name
let total_steps t = t.init_max + t.n_words
let is_done t = t.step >= total_steps t && t.pend_count = 0
let stall_cycles t = t.stalls
let add_stalls t n = t.stalls <- t.stalls + n

let input_channels t =
  Array.to_list t.inputs |> List.filter_map (fun i -> i.channel)

let output_channels t = Array.to_list t.outputs
let next_release t = if t.pend_count = 0 then max_int else t.pend_release.(t.pend_head)

(* Input [i] must consume a word at the current step (a prefetched
   input never streams). *)
let consuming_active t i =
  Option.is_some i.window && t.step >= i.start_step && t.step - i.start_step < t.n_words

(* Fill access [a] for the block's [n] cells. *)
let gather t a dst pos n =
  let tap = t.taps.(a) in
  let i = t.inputs.(tap.input) in
  Compile.gather_row ~extents:t.shape ~idx:t.block_idx ~axes:i.axes ~offs:tap.offs
    ~strides:i.strides ~boundary:i.boundary ~oob:t.block_oob ~copy:tap.copy dst pos n

(* Evaluate the pending words that have no values yet, up to one block
   from the head and no further than the end of the head's row (W
   divides the innermost extent, so the row ends on a word boundary). *)
let evaluate_pending t =
  let rank = Array.length t.shape and w = t.w in
  let idx = t.block_idx in
  let rem = ref ((t.step - t.init_max - t.pend_count) * w) in
  for d = 0 to rank - 1 do
    idx.(d) <- !rem / t.strides.(d);
    rem := !rem mod t.strides.(d)
  done;
  let words = min t.pend_count (min t.block_words ((t.shape.(rank - 1) - idx.(rank - 1)) / w)) in
  let n = words * w in
  let ni = Array.length t.inputs in
  for k = 0 to ni - 1 do
    match t.inputs.(k).window with
    | None -> ()
    | Some win ->
        let slot = ref t.pend_head in
        for q = 0 to words - 1 do
          let newest = t.pend_newest.((!slot * ni) + k) in
          (* A step shifts at most one word into each window. *)
          assert (q = 0 || newest = win.recorded.(q - 1) || newest = win.recorded.(q - 1) + w);
          win.recorded.(q) <- newest;
          slot := if !slot + 1 = t.pend_cap then 0 else !slot + 1
        done
  done;
  Array.fill t.block_oob 0 n false;
  Compile.eval t.body ~n ~gather:(gather t) t.block_out 0;
  for q = 0 to words - 1 do
    let vbase = ((t.pend_head + q) mod t.pend_cap) * w in
    for lane = 0 to w - 1 do
      t.pend_values.(vbase + lane) <- t.block_out.((q * w) + lane);
      t.pend_valid.(vbase + lane) <- not (t.shrink && t.block_oob.((q * w) + lane))
    done
  done;
  t.pend_ready <- words

(* Emit the pending head: copy its lanes into a fresh slot of every
   output channel, in place. *)
let emit_head t =
  if t.pend_ready = 0 then evaluate_pending t;
  let vbase = t.pend_head * t.w in
  for i = 0 to Array.length t.outputs - 1 do
    let c = t.outputs.(i) in
    let base = Channel.Unsafe.push_slot c in
    Array.blit t.pend_values vbase (Channel.Unsafe.buf_values c) base t.w;
    Array.blit t.pend_valid vbase (Channel.Unsafe.buf_valid c) base t.w
  done;
  t.pend_head <- (t.pend_head + 1) mod t.pend_cap;
  t.pend_count <- t.pend_count - 1;
  t.pend_ready <- t.pend_ready - 1

let outputs_have_space t =
  let ok = ref true in
  for i = 0 to Array.length t.outputs - 1 do
    if Channel.is_full t.outputs.(i) then ok := false
  done;
  !ok

let try_flush t ~now =
  if t.pend_count = 0 then false
  else if t.pend_release.(t.pend_head) > now then false
  else if not (outputs_have_space t) then false
  else begin
    emit_head t;
    true
  end

(* Consume one word from input [i] into its window, lane by lane. *)
let shift_in t i =
  let c = Option.get i.channel in
  let win = Option.get i.window in
  let base = Channel.Unsafe.front_slot c in
  let values = Channel.Unsafe.buf_values c in
  for lane = 0 to t.w - 1 do
    window_append win values.(base + lane)
  done;
  Channel.drop c

(* One pipeline step: every active input shifts a word into its window
   and, past the initialization phase, the step's word joins the pending
   line. Only its index and what every window holds now are recorded;
   its values are evaluated later ([evaluate_pending]) and never
   influence timing. *)
let advance t ~now =
  for k = 0 to Array.length t.inputs - 1 do
    let i = t.inputs.(k) in
    if consuming_active t i then shift_in t i
  done;
  if t.step >= t.init_max then begin
    let tail = (t.pend_head + t.pend_count) mod t.pend_cap in
    let ni = Array.length t.inputs in
    t.pend_release.(tail) <- now + t.compute_cycles;
    for k = 0 to ni - 1 do
      match t.inputs.(k).window with
      | Some win -> t.pend_newest.((tail * ni) + k) <- win.newest
      | None -> ()
    done;
    t.pend_count <- t.pend_count + 1
  end;
  t.step <- t.step + 1

let try_step t ~now =
  if t.step >= total_steps t then false
  else if t.pend_count > t.compute_cycles then false
  else begin
    let ready = ref true in
    for k = 0 to Array.length t.inputs - 1 do
      let i = t.inputs.(k) in
      if consuming_active t i then
        match i.channel with
        | Some c -> if Channel.is_empty c then ready := false
        | None -> ()
    done;
    if !ready then advance t ~now;
    !ready
  end

(* What to blame for a no-progress cycle, in the order a hardware
   pipeline would observe it: an empty input it must pop, then a full
   output it must push, then its own pending line (words still
   propagating through the compute latency). *)
let stall_blame t =
  let n = Array.length t.inputs in
  let rec starved k =
    if k >= n then None
    else
      let i = t.inputs.(k) in
      match i.channel with
      | Some c when consuming_active t i && Channel.is_empty c ->
          Some (Telemetry.Input_starved, Channel.name c)
      | Some _ | None -> starved (k + 1)
  in
  match starved 0 with
  | Some _ as blame -> blame
  | None ->
      let m = Array.length t.outputs in
      let rec full k =
        if k >= m then None
        else if Channel.is_full t.outputs.(k) then
          Some (Telemetry.Output_full, Channel.name t.outputs.(k))
        else full (k + 1)
      in
      full 0

let set_hiccup t v = t.hiccup <- v

let cycle t ~now =
  if t.hiccup && not (is_done t) then begin
    (* Injected pipeline hiccup: the whole unit freezes for the cycle. *)
    t.stalls <- t.stalls + 1;
    (match t.probe with
    | None -> ()
    | Some p -> Telemetry.stall p ~now Telemetry.Pipeline_drain);
    false
  end
  else
  let flushed = try_flush t ~now in
  let stepped = try_step t ~now in
  let progress = flushed || stepped in
  if (not progress) && not (is_done t) then begin
    t.stalls <- t.stalls + 1;
    match t.probe with
    | None -> ()
    | Some p -> (
        match stall_blame t with
        | Some (cause, channel) -> Telemetry.stall p ~now ~channel cause
        | None -> Telemetry.stall p ~now Telemetry.Pipeline_drain)
  end
  else if progress then (match t.probe with None -> () | Some p -> Telemetry.busy p ~now);
  progress

(* ------------------------------------------------------------------ *)
(* Fast-forward batch planning (see Engine): describe the exact action  *)
(* the unit will repeat every cycle over a uniform window, bounded by   *)
(* its own phase boundaries and pending-line maturity. Channel          *)
(* occupancy feasibility is the engine's responsibility.                *)
(* ------------------------------------------------------------------ *)

type plan = { flush : bool; pops : Channel.t list; steps : bool; horizon : int }

let plan_flush p = p.flush
let plan_horizon p = p.horizon
let plan_pops p = p.pops

let plan t ~now =
  if is_done t then None
  else if t.hiccup then None
  else begin
    let l = t.compute_cycles in
    let s = t.step in
    let flush = t.pend_count > 0 && t.pend_release.(t.pend_head) <= now in
    let after_flush = t.pend_count - (if flush then 1 else 0) in
    let step_ok = s < total_steps t && after_flush <= l in
    if not (flush || step_ok) then None
    else begin
      let horizon = ref max_int in
      let cap v = if v < !horizon then horizon := v in
      let compute = step_ok && s >= t.init_max in
      if step_ok then begin
        cap (total_steps t - s);
        if s < t.init_max then cap (t.init_max - s);
        (* The set of consuming inputs must not change inside the window. *)
        Array.iter
          (fun i ->
            match i.window with
            | None -> ()
            | Some _ ->
                let a = i.start_step and b = i.start_step + t.n_words in
                if s < a then cap (a - s) else if s < b then cap (b - s))
          t.inputs
      end;
      if flush then begin
        (* Buffered entry [i] flushes at relative cycle [i] and must be
           mature there; a freshly computed word flushes after
           [pend_count] more cycles, mature only if the line is at least
           as long as the compute latency. *)
        for i = 0 to t.pend_count - 1 do
          let r = t.pend_release.((t.pend_head + i) mod t.pend_cap) in
          if r > now + i then cap i
        done;
        if compute then begin
          if l > t.pend_count then cap t.pend_count
        end
        else cap t.pend_count
      end
      else if compute then begin
        (* Not flushing: the window must close before the first flush
           comes due and before the pending line refuses another step. *)
        (if t.pend_count > 0 then cap (t.pend_release.(t.pend_head) - now)
         else cap (max l 1));
        cap (l - t.pend_count + 1)
      end;
      let pops =
        if step_ok then
          Array.to_list t.inputs
          |> List.filter_map (fun i -> if consuming_active t i then i.channel else None)
        else []
      in
      if !horizon < 1 then None else Some { flush; pops; steps = step_ok; horizon = !horizon }
    end
  end

(* One unchecked cycle of the planned action: the engine has already
   validated maturity and channel occupancy for the whole window, inside
   which the set of consuming inputs does not change. *)
let run_planned t ~now p =
  if p.flush then emit_head t;
  if p.steps then advance t ~now

type blockage = Input_empty of string | Output_full of string

let blockages t =
  if is_done t then []
  else
    (Array.to_list t.inputs
    |> List.filter_map (fun i ->
           match i.channel with
           | Some c when consuming_active t i && Channel.is_empty c -> Some (Input_empty i.field)
           | Some _ | None -> None))
    @ (Array.to_list t.outputs
      |> List.filter_map (fun c ->
             if Channel.is_full c then Some (Output_full (Channel.name c)) else None))

let blocked_reason t =
  if is_done t then None
  else
    match blockages t with
    | [] -> Some "pipeline in flight"
    | bs ->
        Some
          (String.concat "; "
             (List.map
                (function
                  | Input_empty f -> Printf.sprintf "waiting on empty input %s" f
                  | Output_full c -> Printf.sprintf "output %s full" c)
                bs))
