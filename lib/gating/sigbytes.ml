(* [v] fits in [k] bytes when sign-extending its low [k] bytes
   (-2^(8k-1) <= v < 2^(8k-1)) or zero-extending them (0 <= v < 2^(8k))
   gives [v] back, i.e. when -2^(8k-1) <= v < 2^(8k). *)
let significant_bytes (v : int64) =
  if v >= -0x80L && v < 0x100L then 1
  else if v >= -0x8000L && v < 0x1_0000L then 2
  else if v >= -0x80_0000L && v < 0x100_0000L then 3
  else if v >= -0x8000_0000L && v < 0x1_0000_0000L then 4
  else if v >= -0x80_0000_0000L && v < 0x100_0000_0000L then 5
  else if v >= -0x8000_0000_0000L && v < 0x1_0000_0000_0000L then 6
  else if v >= -0x80_0000_0000_0000L && v < 0x100_0000_0000_0000L then 7
  else 8

let size_class k =
  if k <= 1 then 1
  else if k <= 2 then 2
  else if k <= 5 then 5
  else 8

let significance_tag_bits = 7
let size_tag_bits = 2
