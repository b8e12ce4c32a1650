open Twmc_geometry

type t = {
  viewport : Rect.t;
  margin : int;
  buf : Buffer.t;
}

let create ~viewport ?(margin = 10) () =
  if Rect.is_empty viewport then invalid_arg "Svg.create: empty viewport";
  { viewport; margin; buf = Buffer.create 4096 }

(* Layout point to SVG point: translate into the viewport, flip y.  One
   layout unit is one SVG unit. *)
let px t x = float_of_int (x - t.viewport.Rect.x0) +. float_of_int t.margin
let py t y = float_of_int (t.viewport.Rect.y1 - y) +. float_of_int t.margin

let doc_w t = float_of_int (Rect.width t.viewport) +. (2.0 *. float_of_int t.margin)
let doc_h t = float_of_int (Rect.height t.viewport) +. (2.0 *. float_of_int t.margin)

let rect t ?(fill = "none") ?(stroke = "black") ?(stroke_width = 1.0)
    ?(opacity = 1.0) (r : Rect.t) =
  if not (Rect.is_empty r) then
    Buffer.add_string t.buf
      (Printf.sprintf
         "<rect x=\"%.1f\" y=\"%.1f\" width=\"%.1f\" height=\"%.1f\" \
          fill=\"%s\" stroke=\"%s\" stroke-width=\"%.2f\" opacity=\"%.2f\"/>\n"
         (px t r.Rect.x0) (py t r.Rect.y1)
         (float_of_int (Rect.width r))
         (float_of_int (Rect.height r))
         fill stroke stroke_width opacity)

let line t ?(stroke = "black") ?(stroke_width = 1.0) ?(dashed = false) (x1, y1)
    (x2, y2) =
  Buffer.add_string t.buf
    (Printf.sprintf
       "<line x1=\"%.1f\" y1=\"%.1f\" x2=\"%.1f\" y2=\"%.1f\" stroke=\"%s\" \
        stroke-width=\"%.2f\"%s/>\n"
       (px t x1) (py t y1) (px t x2) (py t y2) stroke stroke_width
       (if dashed then " stroke-dasharray=\"4 3\"" else ""))

let circle t ?(fill = "black") ?(r = 2.0) (x, y) =
  Buffer.add_string t.buf
    (Printf.sprintf "<circle cx=\"%.1f\" cy=\"%.1f\" r=\"%.2f\" fill=\"%s\"/>\n"
       (px t x) (py t y) r fill)

let escape s =
  String.concat ""
    (List.map
       (fun c ->
         match c with
         | '<' -> "&lt;"
         | '>' -> "&gt;"
         | '&' -> "&amp;"
         | c -> String.make 1 c)
       (List.init (String.length s) (String.get s)))

let text t ?(size = 10.0) ?(fill = "black") (x, y) s =
  Buffer.add_string t.buf
    (Printf.sprintf
       "<text x=\"%.1f\" y=\"%.1f\" font-size=\"%.1f\" fill=\"%s\" \
        font-family=\"monospace\">%s</text>\n"
       (px t x) (py t y) size fill (escape s))

let to_string t =
  Printf.sprintf
    "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"%.0f\" height=\"%.0f\" \
     viewBox=\"0 0 %.0f %.0f\">\n<rect width=\"100%%\" height=\"100%%\" \
     fill=\"white\"/>\n%s</svg>\n"
    (doc_w t) (doc_h t) (doc_w t) (doc_h t) (Buffer.contents t.buf)

let write path t = Twmc_util.Atomic_io.write_string path (to_string t)
