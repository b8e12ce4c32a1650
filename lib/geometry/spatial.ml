(* Uniform-grid spatial index, int-keyed.

   The hot consumer is the placement overlap term on circuits of at least
   [Placement.grid_min_cells] (48) cells: one entry per cell (keyed by cell
   index), moved millions of times over an anneal.  Below that count a
   scan of one packed array of bboxes answers faster, and the placement
   builds no grid.  The structure is tuned for that traffic pattern:

   - keys are small non-negative ints, so per-key state (current
     rectangle as four ints, presence, query stamp) lives in flat arrays
     that grow geometrically — no hashing, no polymorphic equality
     anywhere;
   - [query_into] deduplicates multi-bin entries with a monotonically
     increasing stamp per call against a per-key stamp array and writes
     the hits into a caller-owned buffer: no allocation at all, per call
     or per bin;
   - [update_coords] diffs the old and new bin ranges of a moved rectangle
     and touches only the bins in the symmetric difference — a short move
     that stays within its bins is O(1). *)

type t = {
  world : Rect.t;
  cell_size : int;
  nx : int;
  ny : int;
  bins : int list array;
  (* key -> current rectangle, as x0 y0 x1 y1 at [4 * key] *)
  mutable coords : int array;
  mutable present : bool array;
  mutable seen : int array;  (* key -> stamp of the query that last saw it *)
  mutable stamp : int;
  mutable count : int;
}

let create ~world ~cell_size =
  if cell_size <= 0 then invalid_arg "Spatial.create: cell_size <= 0";
  if Rect.is_empty world then invalid_arg "Spatial.create: empty world";
  let nx = max 1 ((Rect.width world + cell_size - 1) / cell_size)
  and ny = max 1 ((Rect.height world + cell_size - 1) / cell_size) in
  { world;
    cell_size;
    nx;
    ny;
    bins = Array.make (nx * ny) [];
    coords = Array.make (4 * 16) 0;
    present = Array.make 16 false;
    seen = Array.make 16 0;
    stamp = 0;
    count = 0 }

let clamp lo hi (v : int) = if v < lo then lo else if v > hi then hi else v

(* Bin index of a coordinate, clamped into the grid.  The high edges of a
   rectangle use [x1]/[y1] themselves (not minus one) so that touching
   rectangles always share a bin. *)
let bin_x t v = clamp 0 (t.nx - 1) ((v - t.world.Rect.x0) / t.cell_size)
let bin_y t v = clamp 0 (t.ny - 1) ((v - t.world.Rect.y0) / t.cell_size)

let grow t key =
  let n = Array.length t.present in
  if key >= n then begin
    let n' = max (key + 1) (2 * n) in
    let coords = Array.make (4 * n') 0
    and present = Array.make n' false
    and seen = Array.make n' 0 in
    Array.blit t.coords 0 coords 0 (4 * n);
    Array.blit t.present 0 present 0 n;
    Array.blit t.seen 0 seen 0 n;
    t.coords <- coords;
    t.present <- present;
    t.seen <- seen
  end

let set_coords t key ~x0 ~y0 ~x1 ~y1 =
  let o = 4 * key in
  t.coords.(o) <- x0;
  t.coords.(o + 1) <- y0;
  t.coords.(o + 2) <- x1;
  t.coords.(o + 3) <- y1

let add_to_bin t key i = t.bins.(i) <- key :: t.bins.(i)

let drop_from_bin t key i =
  let rec drop = function
    | [] -> invalid_arg "Spatial: key missing from its bin"
    | k :: rest -> if k = key then rest else k :: drop rest
  in
  t.bins.(i) <- drop t.bins.(i)

(* Every bin of the key's current rectangle. *)
let fold_bins t key f =
  let o = 4 * key in
  for iy = bin_y t t.coords.(o + 1) to bin_y t t.coords.(o + 3) do
    for ix = bin_x t t.coords.(o) to bin_x t t.coords.(o + 2) do
      f t key ((iy * t.nx) + ix)
    done
  done

let insert t key (rect : Rect.t) =
  if key < 0 then invalid_arg "Spatial.insert: negative key";
  grow t key;
  if t.present.(key) then invalid_arg "Spatial.insert: key already present";
  t.present.(key) <- true;
  set_coords t key ~x0:rect.Rect.x0 ~y0:rect.Rect.y0 ~x1:rect.Rect.x1
    ~y1:rect.Rect.y1;
  fold_bins t key add_to_bin;
  t.count <- t.count + 1

let mem t key = key >= 0 && key < Array.length t.present && t.present.(key)

let remove t key =
  if not (mem t key) then invalid_arg "Spatial.remove: key not present";
  fold_bins t key drop_from_bin;
  t.present.(key) <- false;
  set_coords t key ~x0:0 ~y0:0 ~x1:0 ~y1:0;
  t.count <- t.count - 1

let update_coords t key ~x0 ~y0 ~x1 ~y1 =
  if not (mem t key) then invalid_arg "Spatial.update: key not present";
  let o = 4 * key in
  let ox0 = bin_x t t.coords.(o) and ox1 = bin_x t t.coords.(o + 2)
  and oy0 = bin_y t t.coords.(o + 1) and oy1 = bin_y t t.coords.(o + 3) in
  let nx0 = bin_x t x0 and nx1 = bin_x t x1
  and ny0 = bin_y t y0 and ny1 = bin_y t y1 in
  set_coords t key ~x0 ~y0 ~x1 ~y1;
  if not (ox0 = nx0 && ox1 = nx1 && oy0 = ny0 && oy1 = ny1) then begin
    (* Touch only the symmetric difference of the two bin ranges. *)
    for iy = oy0 to oy1 do
      for ix = ox0 to ox1 do
        if not (ix >= nx0 && ix <= nx1 && iy >= ny0 && iy <= ny1) then
          drop_from_bin t key ((iy * t.nx) + ix)
      done
    done;
    for iy = ny0 to ny1 do
      for ix = nx0 to nx1 do
        if not (ix >= ox0 && ix <= ox1 && iy >= oy0 && iy <= oy1) then
          add_to_bin t key ((iy * t.nx) + ix)
      done
    done
  end

let update t key (rect : Rect.t) =
  update_coords t key ~x0:rect.Rect.x0 ~y0:rect.Rect.y0 ~x1:rect.Rect.x1
    ~y1:rect.Rect.y1

let rect_of t key =
  if not (mem t key) then invalid_arg "Spatial.rect_of: key not present";
  let o = 4 * key in
  { Rect.x0 = t.coords.(o);
    y0 = t.coords.(o + 1);
    x1 = t.coords.(o + 2);
    y1 = t.coords.(o + 3) }

let next_stamp t =
  (* Wraparound safety: re-zero the stamp array on the (never in practice)
     overflow of the monotonic counter. *)
  if t.stamp = max_int then begin
    Array.fill t.seen 0 (Array.length t.seen) 0;
    t.stamp <- 0
  end;
  t.stamp <- t.stamp + 1;
  t.stamp

(* [Rect.touches] of a stored key against the query box (non-empty). *)
let touches_key t key ~x0 ~y0 ~x1 ~y1 =
  let o = 4 * key in
  let kx0 = t.coords.(o) and ky0 = t.coords.(o + 1)
  and kx1 = t.coords.(o + 2) and ky1 = t.coords.(o + 3) in
  kx0 < kx1 && ky0 < ky1 && kx1 >= x0 && x1 >= kx0 && ky1 >= y0 && y1 >= ky0

(* One bin's keys appended to [buf] from position [n]; returns the new
   count.  A top-level tail-recursive walk, so no closure is built. *)
let rec scan_bin t keys stamp ~x0 ~y0 ~x1 ~y1 buf n =
  match keys with
  | [] -> n
  | key :: rest ->
      let n =
        if t.seen.(key) = stamp then n
        else begin
          t.seen.(key) <- stamp;
          if touches_key t key ~x0 ~y0 ~x1 ~y1 then begin
            if n >= Array.length buf then
              invalid_arg "Spatial.query_into: buffer too small";
            buf.(n) <- key;
            n + 1
          end
          else n
        end
      in
      scan_bin t rest stamp ~x0 ~y0 ~x1 ~y1 buf n

let query_into t ~x0 ~y0 ~x1 ~y1 buf =
  let n = ref 0 in
  if x0 < x1 && y0 < y1 then begin
    let stamp = next_stamp t in
    for iy = bin_y t y0 to bin_y t y1 do
      for ix = bin_x t x0 to bin_x t x1 do
        n := scan_bin t t.bins.((iy * t.nx) + ix) stamp ~x0 ~y0 ~x1 ~y1 buf !n
      done
    done
  end;
  !n

let query t (rect : Rect.t) =
  let buf = Array.make (max 1 t.count) 0 in
  let n =
    query_into t ~x0:rect.Rect.x0 ~y0:rect.Rect.y0 ~x1:rect.Rect.x1
      ~y1:rect.Rect.y1 buf
  in
  Array.to_list (Array.sub buf 0 n)

(* The owner bin of a touching pair is the smallest-index bin common to both
   rectangles' bin ranges; reporting the pair only from its owner makes
   [iter_pairs] visit each pair exactly once. *)
let owner_bin t (a : Rect.t) (b : Rect.t) =
  let ix = max (bin_x t a.Rect.x0) (bin_x t b.Rect.x0)
  and iy = max (bin_y t a.Rect.y0) (bin_y t b.Rect.y0) in
  assert (
    ix <= min (bin_x t a.Rect.x1) (bin_x t b.Rect.x1)
    && iy <= min (bin_y t a.Rect.y1) (bin_y t b.Rect.y1));
  (iy * t.nx) + ix

let iter_pairs t f =
  Array.iteri
    (fun bin keys ->
      let rec go = function
        | [] -> ()
        | k :: rest ->
            let rk = rect_of t k in
            List.iter
              (fun k' ->
                let rk' = rect_of t k' in
                if Rect.touches rk rk' && owner_bin t rk rk' = bin then
                  f k rk k' rk')
              rest;
            go rest
      in
      go keys)
    t.bins

let length t = t.count
