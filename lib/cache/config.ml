type t = {
  size_bytes : int;
  line_bytes : int;
  associativity : int;
  miss_penalty : int;
}

let is_pow2 n = n > 0 && n land (n - 1) = 0

let v ?(size_bytes = 8192) ?(line_bytes = 32) ?(associativity = 1)
    ?(miss_penalty = 20) () =
  if not (is_pow2 size_bytes) then
    invalid_arg "Config.v: size_bytes must be a power of two";
  if not (is_pow2 line_bytes) then
    invalid_arg "Config.v: line_bytes must be a power of two";
  if associativity < 1 then invalid_arg "Config.v: associativity must be >= 1";
  if size_bytes mod (line_bytes * associativity) <> 0 then
    invalid_arg "Config.v: size not divisible by line_bytes * associativity";
  if miss_penalty < 0 then invalid_arg "Config.v: negative miss penalty";
  { size_bytes; line_bytes; associativity; miss_penalty }

let paper_default = v ()

let lines t = t.size_bytes / t.line_bytes

let sets t = lines t / t.associativity

let line_of_addr t addr = addr / t.line_bytes

let lines_in_range t ~addr ~len =
  if len <= 0 then 0
  else line_of_addr t (addr + len - 1) - line_of_addr t addr + 1
