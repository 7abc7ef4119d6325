(* Padé(5,4)-like odd rational approximation:
   tanh x ~= x * (135135 + 17325 x^2 + 378 x^4 + x^6)
           / (135135 + 62370 x^2 + 3150 x^4 + 28 x^6)
   This is the classical continued-fraction truncation; it is monotone
   on the clamp interval and cheap to vectorize. *)
let tanh_rational x =
  if x > 4.97 then 1.0
  else if x < -4.97 then -1.0
  else begin
    let x2 = x *. x in
    let p = x *. (135135.0 +. (x2 *. (17325.0 +. (x2 *. (378.0 +. x2))))) in
    let q = 135135.0 +. (x2 *. (62370.0 +. (x2 *. (3150.0 +. (x2 *. 28.0))))) in
    p /. q
  end

let sigmoid_rational x = 0.5 *. (1.0 +. tanh_rational (0.5 *. x))

let relu x = if x > 0.0 then x else 0.0

type kind = Tanh | Sigmoid | Relu | Identity

let apply = function
  | Tanh -> tanh_rational
  | Sigmoid -> sigmoid_rational
  | Relu -> relu
  | Identity -> Fun.id

let name = function
  | Tanh -> "tanh"
  | Sigmoid -> "sigmoid"
  | Relu -> "relu"
  | Identity -> "id"

(* Rational tanh: 7 multiplies + 6 adds + 1 divide ~ 14; sigmoid adds a
   couple more.  These magnitudes only matter relative to the H^2 matvec
   terms, so round numbers are fine. *)
let flops = function
  | Tanh -> 14
  | Sigmoid -> 17
  | Relu -> 1
  | Identity -> 0
