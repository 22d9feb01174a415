type id = A | B | C1 | C2 | C3

let all = [ A; B; C1; C2; C3 ]

let to_string = function
  | A -> "A"
  | B -> "B"
  | C1 -> "C-1"
  | C2 -> "C-2"
  | C3 -> "C-3"

let of_string s =
  match String.lowercase_ascii s with
  | "a" -> Some A
  | "b" -> Some B
  | "c-1" | "c1" -> Some C1
  | "c-2" | "c2" -> Some C2
  | "c-3" | "c3" -> Some C3
  | _ -> None

let is_distributed = function A | B -> false | C1 | C2 | C3 -> true
