module Fix = Surface_fixture.Fix

let made = Fix.make ()

let scaled ?fwd n = Fix.scale ?fwd n

let shifted = Fix.shift ~by:1

let total = made + scaled 2 + shifted ()
